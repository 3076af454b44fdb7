package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/httpapi"
	"felip/internal/wire"
)

// TestCoordinatorArchiveRestart is the cluster acceptance for the archive: a
// coordinator that archives each merged round and is then killed (its process
// state gone, only the archive directory and the shards surviving) must come
// back answering the current round bit-identically, keep every archived round
// queryable, and catch up with shards that had already advanced past it.
func TestCoordinatorArchiveRestart(t *testing.T) {
	const (
		k       = 3
		n       = 1200
		devSeed = 501
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 503)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 505}
	ctx := context.Background()
	dir := t.TempDir()

	// The coordinator's plan fingerprint, the way cmd/felipserver derives it.
	fpCol, err := core.NewCollector(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp := wire.NewPlanMessage(schema, fpCol.Epsilon(), fpCol.Mode(), fpCol.Longitudinal(), fpCol.Specs()).Fingerprint()
	openStore := func() *archive.Store {
		st, err := archive.Open(dir, archive.Options{PlanFingerprint: fp, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Shards outlive the coordinator crash.
	var bases []string
	for i := 0; i < k; i++ {
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
	newCoordinator := func() (*Coordinator, *httptest.Server, *Client) {
		coord, err := New(Config{
			Schema:  schema,
			N:       n,
			Opts:    opts,
			Shards:  bases,
			Archive: openStore(),
			Retry:   fastRetry(4),
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(coord.Handler())
		return coord, ts, NewClient(ts.URL, bases, nil, fastRetry(4))
	}

	runRound := func(cl *Client, specs []core.GridSpec, roundSeed uint64, round int) []float64 {
		for row := 0; row < n; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, roundSeed)
			if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
				t.Fatalf("row %d: %v", row, err)
			}
		}
		if count, err := cl.Finalize(ctx); err != nil || count != n {
			t.Fatalf("finalize round %d: %d, %v", round, count, err)
		}
		ests := make([]float64, len(clusterQueries))
		for i, where := range clusterQueries {
			resp, err := cl.Query(ctx, where)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Round != round {
				t.Fatalf("answer from round %d, want %d", resp.Round, round)
			}
			ests[i] = resp.Estimate
		}
		return ests
	}

	coord1, ts1, cl1 := newCoordinator()
	plan, err := cl1.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	want1 := runRound(cl1, specs, devSeed, 1)

	// Advance the shards to round 2, then kill the coordinator: the worst
	// window — the cluster is past the round the archive holds.
	if round, err := cl1.NextRound(ctx); err != nil || round != 2 {
		t.Fatalf("nextround: %d, %v", round, err)
	}
	ts1.Close()
	_ = coord1 // nothing to close; a kill -9 leaves no goodbye either

	// Restart from nothing but the archive directory.
	coord2, ts2, cl2 := newCoordinator()
	defer ts2.Close()
	if coord2.Round() != 1 {
		t.Fatalf("restored coordinator in round %d, want 1", coord2.Round())
	}
	st := coord2.Status()
	if !st.Finalized || st.Reports != n || st.ServedRound != 1 {
		t.Fatalf("restored status = %+v", st)
	}
	for i, where := range clusterQueries {
		resp, err := cl2.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Round != 1 || resp.Estimate != want1[i] {
			t.Fatalf("restored %q = %+v, want round-1 estimate %v (not bit-identical)", where, resp, want1[i])
		}
	}

	// Catch up: the shards are already in round 2, so the idempotent advance
	// brings the coordinator level without disturbing them.
	if round, err := cl2.NextRound(ctx); err != nil || round != 2 {
		t.Fatalf("catch-up nextround: %d, %v", round, err)
	}
	want2 := runRound(cl2, specs, devSeed+100000, 2)

	// Historical plane: round 1 stays queryable by round targeting after
	// round 2 takes over, bit-identical to what it answered before the crash.
	direct := httpapi.Dial(ts2.URL, ts2.Client())
	for i, where := range clusterQueries {
		resp, err := direct.QueryRound(ctx, 1, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != want1[i] {
			t.Fatalf("archived round-1 %q = %v, want %v", where, resp.Estimate, want1[i])
		}
	}
	rounds, err := direct.Rounds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds.Rounds) != 2 || rounds.Served != 2 || rounds.Current != 2 {
		t.Fatalf("rounds listing = %+v", rounds)
	}

	// One more kill-and-restore, now with two archived rounds: the newest one
	// is served and both stay queryable.
	ts2.Close()
	coord3, ts3, cl3 := newCoordinator()
	defer ts3.Close()
	if coord3.Round() != 2 {
		t.Fatalf("second restore landed in round %d, want 2", coord3.Round())
	}
	for i, where := range clusterQueries {
		resp, err := cl3.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Round != 2 || resp.Estimate != want2[i] {
			t.Fatalf("second restore %q = %+v, want round-2 estimate %v", where, resp, want2[i])
		}
	}
	direct3 := httpapi.Dial(ts3.URL, ts3.Client())
	for i, where := range clusterQueries {
		resp, err := direct3.QueryRound(ctx, 1, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != want1[i] {
			t.Fatalf("round-1 after second restore: %q = %v, want %v", where, resp.Estimate, want1[i])
		}
	}
}

// TestCoordinatorSnapshotMatchesSingleNode pins the one snapshot writer: a
// 3-shard coordinator with an archive and a standalone server with an archive
// take the same reports for two rounds, and each round's snapshot file must
// be byte-identical across the two.
func TestCoordinatorSnapshotMatchesSingleNode(t *testing.T) {
	const (
		k       = 3
		n       = 1500
		devSeed = 611
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 613)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 617}
	ctx := context.Background()

	single, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	single.SetLogger(t.Logf)
	openStore := func() (*archive.Store, string) {
		dir := t.TempDir()
		st, err := archive.Open(dir, archive.Options{PlanFingerprint: single.PlanFingerprint(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return st, dir
	}
	singleStore, singleDir := openStore()
	if err := single.UseArchive(singleStore, nil); err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(singleTS.Close)
	singleCl := httpapi.Dial(singleTS.URL, singleTS.Client())

	var bases []string
	for i := 0; i < k; i++ {
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
	coordStore, coordDir := openStore()
	coord, err := New(Config{
		Schema:  schema,
		N:       n,
		Opts:    opts,
		Shards:  bases,
		Archive: coordStore,
		Retry:   fastRetry(4),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	cl := NewClient(coordTS.URL, bases, nil, fastRetry(4))

	plan, err := singleCl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if round > 1 {
			if got, err := singleCl.NextRound(ctx); err != nil || got != round {
				t.Fatalf("single nextround: %d, %v", got, err)
			}
			if got, err := cl.NextRound(ctx); err != nil || got != round {
				t.Fatalf("cluster nextround: %d, %v", got, err)
			}
		}
		for row := 0; row < n; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed+uint64(round)*100000)
			if _, err := singleCl.ReportWithID(ctx, id, rep); err != nil {
				t.Fatalf("single row %d: %v", row, err)
			}
			if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
				t.Fatalf("cluster row %d: %v", row, err)
			}
		}
		if got, err := singleCl.Finalize(ctx); err != nil || got != n {
			t.Fatalf("single finalize round %d: %d, %v", round, got, err)
		}
		if got, err := cl.Finalize(ctx); err != nil || got != n {
			t.Fatalf("cluster finalize round %d: %d, %v", round, got, err)
		}
		name := fmt.Sprintf("round-%06d.snap", round)
		want, err := os.ReadFile(filepath.Join(singleDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(coordDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the coordinator's %s (%d bytes) differs from the single node's (%d bytes)",
				round, name, len(got), len(want))
		}
	}
}
