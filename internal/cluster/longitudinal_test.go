package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/longitudinal"
)

// TestClusterLongitudinalMergeAndAnswer runs a 2-shard cluster through a
// memoized two-stage round: every shard's PartialState carries the
// longitudinal budgets, the coordinator merges them into its own longitudinal
// plan, and the merged estimates answer queries sanely. The memos persist
// across two rounds — the second round replays them, and the merge still
// closes with every device counted.
func TestClusterLongitudinalMergeAndAnswer(t *testing.T) {
	const n = 800
	ctx := context.Background()
	opts := core.Options{
		Strategy:     core.OHG,
		Epsilon:      2,
		Seed:         81,
		Longitudinal: &fo.Longitudinal{EpsPerm: 3},
	}
	h := newHarness(t, 2, n, opts, nil, fastRetry(4))

	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 83)
	plan, err := h.client.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Longitudinal == nil {
		t.Fatal("cluster plan dropped the longitudinal budgets")
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]longitudinal.Stages, len(specs))
	for g, sp := range specs {
		if stages[g], err = longitudinal.NewStages(*plan.Longitudinal, sp.L()); err != nil {
			t.Fatal(err)
		}
	}

	// Memoize once; report the same memos in both rounds through the
	// coordinator's shard routing.
	rng := fo.NewRand(85)
	memos := make([]int, n)
	groups := make([]int, n)
	for dev := 0; dev < n; dev++ {
		id := fmt.Sprintf("cdev-%d", dev)
		groups[dev] = httpapi.DeriveGroup(id, len(specs))
		cell := specs[groups[dev]].CellOf(func(attr int) int { return ds.Value(dev, attr) })
		if memos[dev], err = stages[groups[dev]].Memoize(cell, rng); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 2; round++ {
		for dev := 0; dev < n; dev++ {
			id := fmt.Sprintf("cdev-%d", dev)
			v, err := stages[groups[dev]].Perturb(memos[dev], rng)
			if err != nil {
				t.Fatal(err)
			}
			shardCl := h.client.Shard(id)
			if _, err := shardCl.ReportLongitudinalWithID(ctx, fmt.Sprintf("%s-r%d", id, round),
				core.Report{Group: groups[dev], Proto: fo.GRR, Value: v}); err != nil {
				t.Fatalf("round %d device %d: %v", round, dev, err)
			}
		}
		count, err := h.coord.FinalizeRound(ctx)
		if err != nil {
			t.Fatalf("round %d merge: %v", round, err)
		}
		if count != n {
			t.Fatalf("round %d merged %d reports, want %d", round, count, n)
		}
		resp, err := h.client.Query(ctx, "num0=0..15")
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(resp.Estimate) || resp.Estimate < -0.5 || resp.Estimate > 1.5 {
			t.Fatalf("round %d estimate %v out of range", round, resp.Estimate)
		}
		if round == 1 {
			if _, err := h.coord.AdvanceRound(ctx, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A shard that ran its round one-shot must be refused when the cluster plan is
// longitudinal (and vice versa): its reports came from a different channel, so
// folding its partials would corrupt the two-stage inversion. Mirrors the
// mixed-mode merge refusal.
func TestClusterLongitudinalMismatchMergeRefused(t *testing.T) {
	const n = 400
	ctx := context.Background()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 91)
	longOpts := core.Options{
		Strategy:     core.OHG,
		Epsilon:      2,
		Seed:         93,
		Longitudinal: &fo.Longitudinal{EpsPerm: 3},
	}
	oneShotOpts := longOpts
	oneShotOpts.Longitudinal = nil

	// Shard 0 runs the cluster's longitudinal plan; shard 1 is misconfigured
	// to one-shot.
	var bases []string
	for i, opts := range []core.Options{longOpts, oneShotOpts} {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		srv.SetShardID(fmt.Sprintf("shard-%d", i))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
	}
	coord, err := New(Config{
		Schema: schema,
		N:      n,
		Opts:   longOpts,
		Shards: bases,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Feed each shard reports valid under its own plan, so the refusal can
	// only come from the merge-time longitudinal check.
	for i, base := range bases {
		cl := httpapi.Dial(base, nil)
		plan, err := cl.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := plan.Specs()
		if err != nil {
			t.Fatal(err)
		}
		rng := fo.NewRand(95 + uint64(i))
		for dev := 0; dev < n/2; dev++ {
			id := fmt.Sprintf("mm-%d-%d", i, dev)
			group := httpapi.DeriveGroup(id, len(specs))
			if i == 0 {
				stg, err := longitudinal.NewStages(*plan.Longitudinal, specs[group].L())
				if err != nil {
					t.Fatal(err)
				}
				cell := specs[group].CellOf(func(attr int) int { return ds.Value(dev, attr) })
				b, err := stg.Memoize(cell, rng)
				if err != nil {
					t.Fatal(err)
				}
				v, err := stg.Perturb(b, rng)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.ReportLongitudinalWithID(ctx, id, core.Report{Group: group, Proto: fo.GRR, Value: v}); err != nil {
					t.Fatal(err)
				}
			} else {
				device, err := core.NewClient(specs, plan.Epsilon, 97+uint64(dev))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := device.Perturb(group, func(attr int) int { return ds.Value(dev, attr) })
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if _, err := coord.FinalizeRound(ctx); err == nil {
		t.Fatal("coordinator merged a longitudinal shard with a one-shot shard")
	} else if !strings.Contains(err.Error(), "longitudinal") || !strings.Contains(err.Error(), "refusing the merge") {
		t.Fatalf("refusal does not name the longitudinal mismatch: %v", err)
	}
}
