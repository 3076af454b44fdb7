package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/wire"
)

// submitRows feeds rows [0, n) of ds as deterministic devices.
func submitRows(t *testing.T, cl *Client, specs []core.GridSpec, eps float64, ds *dataset.Dataset, n int, devSeed uint64) {
	t.Helper()
	ctx := context.Background()
	for row := 0; row < n; row++ {
		id := fmt.Sprintf("dev-%d-%d", row, devSeed)
		device, err := core.NewClient(specs, eps, devSeed+uint64(row))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := device.Perturb(DeriveGroup(id, len(specs)),
			func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
	}
}

// TestNextRoundIdempotentTransitions: POST /v1/nextround with a target round
// must be safely repeatable — the same transition twice advances once — and a
// skipped round must be refused, while an empty body keeps the legacy
// unconditional advance.
func TestNextRoundIdempotentTransitions(t *testing.T) {
	const n = 400
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 565)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.3, Seed: 563}
	ctx := context.Background()

	srv, err := NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	// A replayed transition into the round we are already in succeeds even
	// before any finalize — the transition was (vacuously) applied.
	if round, err := cl.NextRoundTo(ctx, 1); err != nil || round != 1 {
		t.Fatalf("replay into round 1: %d, %v", round, err)
	}
	// Advancing an unfinalized round must still be refused.
	if _, err := cl.NextRoundTo(ctx, 2); err == nil {
		t.Fatal("advance of unfinalized round accepted")
	}

	submitRows(t, cl, specs, opts.Epsilon, ds, n, 101)
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}

	// The real transition, then its retry: exactly one advance.
	if round, err := cl.NextRoundTo(ctx, 2); err != nil || round != 2 {
		t.Fatalf("advance to 2: %d, %v", round, err)
	}
	if round, err := cl.NextRoundTo(ctx, 2); err != nil || round != 2 {
		t.Fatalf("retried advance to 2: %d, %v", round, err)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 2 || st.Reports != 0 {
		t.Fatalf("after retried transition: round %d with %d reports", st.Round, st.Reports)
	}

	// Skips — forward or backward — are divergence, not idempotence.
	if _, err := cl.NextRoundTo(ctx, 4); err == nil {
		t.Fatal("round skip 2 → 4 accepted")
	}
	if _, err := cl.NextRoundTo(ctx, 1); err == nil {
		t.Fatal("round rollback 2 → 1 accepted")
	}

	// The legacy body-less advance still works after a finalize.
	submitRows(t, cl, specs, opts.Epsilon, ds, n, 202)
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if round, err := cl.NextRound(ctx); err != nil || round != 3 {
		t.Fatalf("legacy advance: %d, %v", round, err)
	}
}

// TestShardStateSealsRound: the first state pull seals the round — reports
// and assignments are refused, status says so — repeat pulls serve the
// identical cached message, and the idempotent round transition reopens the
// shard for the next round.
func TestShardStateSealsRound(t *testing.T) {
	const n = 500
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 665)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.3, Seed: 663}
	ctx := context.Background()

	srv, err := NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	srv.SetShardID("s7")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	submitRows(t, cl, specs, opts.Epsilon, ds, n, 301)

	first, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.ShardID != "s7" || first.Round != 1 || first.Reports != n {
		t.Fatalf("sealed state: %+v", first)
	}
	if len(first.Grids) != len(specs) {
		t.Fatalf("state carries %d grids for a %d-grid plan", len(first.Grids), len(specs))
	}

	// Sealed: new reports 409, assignment 409, status shows it.
	id := fmt.Sprintf("dev-%d-%d", 0, 999)
	device, err := core.NewClient(specs, opts.Epsilon, 999)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := device.Perturb(DeriveGroup(id, len(specs)), func(attr int) int { return ds.Value(0, attr) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReportWithID(ctx, id, rep); err == nil {
		t.Fatal("sealed shard accepted a new report")
	}
	if _, err := cl.Assign(ctx); err == nil {
		t.Fatal("sealed shard handed out an assignment")
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.ShardID != "s7" {
		t.Fatalf("status after seal: %+v", st)
	}

	// Re-pull: identical bytes (same checksum), still 200.
	second, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Checksum != first.Checksum || second.Reports != first.Reports {
		t.Fatalf("re-pull differs: %08x vs %08x", second.Checksum, first.Checksum)
	}

	// A sealed (but locally unfinalized) shard advances rounds and reopens.
	if round, err := cl.NextRoundTo(ctx, 2); err != nil || round != 2 {
		t.Fatalf("advance sealed shard: %d, %v", round, err)
	}
	st, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sealed || st.Round != 2 || st.Reports != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
	submitRows(t, cl, specs, opts.Epsilon, ds, 50, 401)
	if st, _ := cl.Status(ctx); st.Reports != 50 {
		t.Fatalf("reopened round ingested %d reports, want 50", st.Reports)
	}
}

// TestFinalizeMergedRefusesForeignStates sends the merged round a right shard
// state beside a wrong one, one wrong field at a time: another round, another
// ε, another mode, and the plan's longitudinal flag with another ε_perm. Each
// merge must be refused with nothing imported and the round left open, and
// the retried right merge must then close the round.
func TestFinalizeMergedRefusesForeignStates(t *testing.T) {
	const eps = 2.0
	schema := dataset.MixedSchema(2, 32, 2, 4)
	for _, tc := range []struct {
		name string
		long *fo.Longitudinal // the plan's
		edit func(m *wire.ShardStateMessage)
		want string
	}{
		{"round", nil, func(m *wire.ShardStateMessage) { m.Round = 2 }, "is in round 2"},
		{"epsilon", nil, func(m *wire.ShardStateMessage) { m.Epsilon = 1.5 }, "at epsilon 1.5"},
		{"mode", nil, func(m *wire.ShardStateMessage) { m.Mode = wire.ModeName(fo.ModeSPL) }, "mixed-mode"},
		{"eps_perm", &fo.Longitudinal{EpsPerm: 3}, func(m *wire.ShardStateMessage) {
			m.Longitudinal = &fo.Longitudinal{EpsPerm: 4, Eps1: eps}
		}, "longitudinal parameters eps_perm=4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.Options{Strategy: core.OHG, Epsilon: eps, Seed: 83, Longitudinal: tc.long}
			srv, err := NewServer(schema, 100, opts)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetLogger(t.Logf)
			shardState := func(id string) wire.ShardStateMessage {
				col, err := core.NewCollector(schema, 100, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					if err := col.Add(validProbe(col.Specs(), fo.ModeFELIP, "", i%len(col.Specs())).rep); err != nil {
						t.Fatal(err)
					}
				}
				states, err := col.ExportPartials()
				if err != nil {
					t.Fatal(err)
				}
				return wire.NewShardStateMessage(id, 1, eps, fo.ModeFELIP, col.Longitudinal(), 0, 0, states)
			}
			right, wrong := shardState("shard-0"), shardState("shard-1")
			tc.edit(&wrong)
			wrong.Checksum = wrong.Sum()
			if err := wrong.Verify(); err != nil {
				t.Fatalf("the wrong message must be well formed: %v", err)
			}

			_, err = srv.FinalizeMerged([]wire.ShardStateMessage{right, wrong})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("merge with another %s: %v, want a refusal naming %q", tc.name, err, tc.want)
			}
			if st := srv.Status(); st.Reports != 0 || st.Finalized || st.Finalizing || st.Sealed || st.Round != 1 {
				t.Fatalf("a refused merge left the round at %+v", st)
			}
			if n, err := srv.FinalizeMerged([]wire.ShardStateMessage{right, shardState("shard-1")}); err != nil || n != 20 {
				t.Fatalf("retried merge: %d, %v; want 20 reports", n, err)
			}
			if st := srv.Status(); !st.Finalized || st.Reports != 20 || st.ServedRound != 1 {
				t.Fatalf("the retried merge left the round at %+v", st)
			}
		})
	}
}
