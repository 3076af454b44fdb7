package httpapi

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/reportlog"
)

// roundServer starts a server plus HTTP client for multi-round tests.
func roundServer(t *testing.T, n int) (*Server, *Client, *dataset.Dataset) {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 7)
	srv, err := NewServer(schema, n, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, Dial(ts.URL, ts.Client()), ds
}

// reportAll perturbs and submits every dataset row through the HTTP client.
func reportAll(t *testing.T, cl *Client, ds *dataset.Dataset, seed uint64) {
	t.Helper()
	ctx := context.Background()
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	device, err := core.NewClient(specs, plan.Epsilon, seed)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < ds.N(); row++ {
		group, err := cl.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := device.Perturb(group, func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
}

// Acceptance test for the round lifecycle: after round k finalizes, reports
// for round k+1 are accepted while round k keeps answering queries.
func TestNextRoundCollectsWhileServing(t *testing.T) {
	const n = 4000
	srv, cl, ds := roundServer(t, n)
	ctx := context.Background()

	// NextRound before any finalize must refuse.
	if _, err := cl.NextRound(ctx); err == nil {
		t.Fatal("NextRound on an open round accepted")
	}

	reportAll(t, cl, ds, 13)
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	r1, err := cl.Query(ctx, "num0=8..23")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Round != 1 {
		t.Fatalf("round-1 answer tagged round %d", r1.Round)
	}

	round, err := cl.NextRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if round != 2 {
		t.Fatalf("NextRound = %d, want 2", round)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 2 || st.ServedRound != 1 || st.Finalized || st.Reports != 0 {
		t.Fatalf("post-NextRound status = %+v", st)
	}

	// Interleave: submit round-2 reports while querying round 1 — every
	// report must be accepted and every query answered from round 1.
	ds2 := dataset.NewUniform().Generate(srv.schema, n, 99)
	plan, _ := cl.Plan(ctx)
	specs, _ := plan.Specs()
	device, err := core.NewClient(specs, plan.Epsilon, 17)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds2.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatalf("row %d: report for round 2 refused while round 1 serves: %v", row, err)
		}
		if row%500 == 0 {
			resp, err := cl.Query(ctx, "num0=8..23")
			if err != nil {
				t.Fatalf("row %d: round-1 query failed during round-2 ingest: %v", row, err)
			}
			if resp.Round != 1 || resp.Estimate != r1.Estimate {
				t.Fatalf("row %d: round-1 answer drifted during ingest: %+v vs %+v", row, resp, r1)
			}
		}
	}

	// Finalize round 2: queries swap to the new round atomically.
	count, err := cl.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("round-2 finalize count = %d", count)
	}
	r2, err := cl.Query(ctx, "num0=8..23")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Round != 2 {
		t.Fatalf("post-swap answer tagged round %d", r2.Round)
	}
	st, _ = cl.Status(ctx)
	if st.Round != 2 || st.ServedRound != 2 || !st.Finalized {
		t.Fatalf("post-round-2 status = %+v", st)
	}
}

// A batch answers exactly what N single queries answer, with per-item errors
// for the entries that cannot be parsed or answered.
func TestBatchQueryMatchesSingles(t *testing.T) {
	srv, cl, _ := roundServer(t, 3000)
	ctx := context.Background()
	if err := Simulate(srv, "normal", 3000, 21); err != nil {
		t.Fatal(err)
	}
	wheres := []string{
		"num0=8..23",
		"num0=0..15; cat0=0,1",
		"num0=8..23; num1=4..27; cat1=0,1,2",
		"cat0=0",
		"not a query", // parse error
		"cat0=0..1",   // BETWEEN on categorical: answer error
		"num0<=12; cat1=1,3",
	}
	batch, err := cl.QueryBatch(ctx, wheres)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(wheres) {
		t.Fatalf("%d results for %d queries", len(batch.Results), len(wheres))
	}
	if batch.Round != 1 || batch.N != 3000 {
		t.Fatalf("batch metadata: round=%d n=%d", batch.Round, batch.N)
	}
	for i, item := range batch.Results {
		if i == 4 || i == 5 {
			if item.Error == "" {
				t.Errorf("item %d (%q): expected an error", i, wheres[i])
			}
			continue
		}
		if item.Error != "" {
			t.Errorf("item %d (%q): %s", i, wheres[i], item.Error)
			continue
		}
		single, err := cl.Query(ctx, wheres[i])
		if err != nil {
			t.Fatal(err)
		}
		if item.Estimate != single.Estimate {
			t.Errorf("item %d: batch %v vs single %v", i, item.Estimate, single.Estimate)
		}
		if math.Abs(item.ExpectedError-single.ExpectedError) > 0 {
			t.Errorf("item %d: expected error %v vs %v", i, item.ExpectedError, single.ExpectedError)
		}
	}
	// Oversized and empty batches are refused whole.
	if _, err := cl.QueryBatch(ctx, nil); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]string, maxBatchQueries+1)
	for i := range big {
		big[i] = "num0=0..3"
	}
	if _, err := cl.QueryBatch(ctx, big); err == nil {
		t.Error("oversized batch accepted")
	}
}

// Race hammer: mixed single and batch queries run flat out while the next
// round ingests reports, finalizes, and swaps the serving engine. Run under
// -race (make check); every query must succeed against round 1 or round 2.
func TestQueryServingDuringNextRoundHammer(t *testing.T) {
	const n = 1500
	srv, cl, ds := roundServer(t, n)
	ctx := context.Background()
	if err := Simulate(srv, "normal", n, 31); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}

	wheres := []string{
		"num0=8..23",
		"num0=0..15; cat0=0,1",
		"num0=8..23; num1=4..27",
		"cat0=0; cat1=1,2",
		"num1>=20",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 0 {
					batch, err := cl.QueryBatch(ctx, wheres)
					if err != nil {
						t.Errorf("worker %d: batch: %v", w, err)
						return
					}
					for _, item := range batch.Results {
						if item.Error != "" {
							t.Errorf("worker %d: batch item: %s", w, item.Error)
							return
						}
					}
					if batch.Round != 1 && batch.Round != 2 {
						t.Errorf("worker %d: batch round %d", w, batch.Round)
						return
					}
				} else {
					resp, err := cl.Query(ctx, wheres[(i+w)%len(wheres)])
					if err != nil {
						t.Errorf("worker %d: query: %v", w, err)
						return
					}
					if resp.Round != 1 && resp.Round != 2 {
						t.Errorf("worker %d: round %d", w, resp.Round)
						return
					}
				}
			}
		}()
	}

	// Meanwhile: ingest round 2 and finalize it (engine swap under fire).
	plan, _ := cl.Plan(ctx)
	specs, _ := plan.Specs()
	device, err := core.NewClient(specs, plan.Epsilon, 37)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
	}
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	resp, err := cl.Query(ctx, wheres[0])
	if err != nil || resp.Round != 2 {
		t.Fatalf("final query: %+v, %v", resp, err)
	}
}

// Durable multi-round: each round writes its own WAL segment; a restart
// replays the segments in order and resumes serving the last finalized round
// and collecting the open one.
func TestDurableMultiRoundRestart(t *testing.T) {
	const n = 600
	segs := reportlog.NewSegments(filepath.Join(t.TempDir(), "round.wal"))
	schema := dataset.MixedSchema(2, 32, 2, 4)
	opts := core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11}

	// newServer boots a server from the segment chain, as felipserver does.
	newServer := func() *Server {
		srv, err := NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		if err := srv.Recover(segs, 1); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// Round 1: collect, finalize, open round 2, collect half of it.
	srv := newServer()
	ts := httptest.NewServer(srv.Handler())
	cl := Dial(ts.URL, ts.Client())
	ds := dataset.NewNormal().Generate(schema, n, 41)
	reportAll(t, cl, ds, 43)
	ctx := context.Background()
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	want1, err := cl.Query(ctx, "num0=8..23")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}
	ds2 := dataset.NewUniform().Generate(schema, n, 47)
	plan, _ := cl.Plan(ctx)
	specs, _ := plan.Specs()
	device, err := core.NewClient(specs, plan.Epsilon, 53)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n/2; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds2.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay segment 1 then segment 2.
	srv2 := newServer()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	cl2 := Dial(ts2.URL, ts2.Client())

	// Round 1's answers survive the restart bit-identically (same replayed
	// reports, deterministic pipeline), and round 2's ingest resumes.
	got1, err := cl2.Query(ctx, "num0=8..23")
	if err != nil {
		t.Fatal(err)
	}
	if got1.Estimate != want1.Estimate || got1.Round != 1 {
		t.Fatalf("restarted round-1 answer %+v, want %+v", got1, want1)
	}
	st, err := cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 2 || st.ServedRound != 1 || st.Reports != n/2 || !st.Durable {
		t.Fatalf("restarted status = %+v", st)
	}
	for row := n / 2; row < n; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds2.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl2.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	if count, err := cl2.Finalize(ctx); err != nil || count != n {
		t.Fatalf("round-2 finalize after restart: %d, %v", count, err)
	}
	if resp, err := cl2.Query(ctx, "num0=8..23"); err != nil || resp.Round != 2 {
		t.Fatalf("round-2 query after restart: %+v, %v", resp, err)
	}
}
