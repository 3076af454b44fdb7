package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/faultinject"
	"felip/internal/httpapi"
)

// The evaluation workload: range and point predicates of the kind the
// paper's ipums experiments ask.
var clusterQueries = []string{
	"num0=0..15",
	"num0=8..23",
	"num0=24..31",
	"num1=16..31",
	"num1=4..11",
	"cat0=0,1",
	"cat1=2,3",
	"num0=0..15; cat0=0,1",
	"num0=8..23; num1=0..15",
	"num0=16..31; cat0=2",
	"num1=12..27; cat0=0,2",
	"cat0=1; cat1=2,3",
}

func fastRetry(attempts int) httpapi.RetryPolicy {
	return httpapi.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Timeout:     5 * time.Second,
		Seed:        99,
	}
}

// deviceReport builds row's deterministic ε-LDP report: the same id, device
// seed, group and perturbation whether the report is sent to a single node or
// a cluster — so both topologies receive the identical report multiset. The
// id carries the device seed, which the tests vary per round: the dedup index
// spans rounds by design, so a report key must be fresh each round.
func deviceReport(t *testing.T, specs []core.GridSpec, eps float64, ds *dataset.Dataset, row int, devSeed uint64) (string, core.Report) {
	t.Helper()
	id := fmt.Sprintf("user-%d-%d", row, devSeed)
	device, err := core.NewClient(specs, eps, devSeed+uint64(row))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := device.Perturb(httpapi.DeriveGroup(id, len(specs)),
		func(attr int) int { return ds.Value(row, attr) })
	if err != nil {
		t.Fatal(err)
	}
	return id, rep
}

// TestRendezvousCoversAndDecorrelates: every shard must receive traffic, and
// the shard partition must be independent of the group partition — with a
// shared hash a 4-shard cluster on a 4-group plan would pin each shard to a
// single group and starve the others.
func TestRendezvousCoversAndDecorrelates(t *testing.T) {
	const shards, groups, n = 4, 4, 4000
	names := make([]string, shards)
	for s := range names {
		names[s] = StaticShardName(s)
	}
	seen := make(map[[2]int]int)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("user-%d", i)
		seen[[2]int{RendezvousFor(id, names), httpapi.DeriveGroup(id, groups)}]++
	}
	for s := 0; s < shards; s++ {
		for g := 0; g < groups; g++ {
			if seen[[2]int{s, g}] == 0 {
				t.Errorf("shard %d never saw group %d: shard and group hashes are correlated", s, g)
			}
		}
	}
}

// harness is an in-process cluster: k shard servers plus a coordinator, all
// over real HTTP.
type harness struct {
	shardSrvs []*httpapi.Server
	shardTSs  []*httptest.Server
	bases     []string
	coord     *Coordinator
	coordTS   *httptest.Server
	client    *Client
}

func newHarness(t *testing.T, k, n int, opts core.Options, hc *http.Client, retry httpapi.RetryPolicy) *harness {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	h := &harness{}
	for i := 0; i < k; i++ {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		srv.SetShardID(fmt.Sprintf("shard-%d", i))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		h.shardSrvs = append(h.shardSrvs, srv)
		h.shardTSs = append(h.shardTSs, ts)
		h.bases = append(h.bases, ts.URL)
	}
	coord, err := New(Config{
		Schema:     schema,
		N:          n,
		Opts:       opts,
		Shards:     h.bases,
		HTTPClient: hc,
		Retry:      retry,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	h.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(h.coordTS.Close)
	h.client = NewClient(h.coordTS.URL, h.bases, hc, retry)
	return h
}

// TestClusterBitIdenticalToSingleNode is the tentpole acceptance: a 3-shard
// cluster collecting the same report multiset as one server must answer every
// query bit-for-bit identically, across two full rounds (finalize → advance →
// collect → finalize).
func TestClusterBitIdenticalToSingleNode(t *testing.T) {
	const (
		k       = 3
		n       = 2400
		devSeed = 265
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 263)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 261}
	ctx := context.Background()

	runSingle := func(roundSeed uint64) []float64 {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := httpapi.Dial(ts.URL, ts.Client())
		plan, err := cl.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := plan.Specs()
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < n; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, roundSeed)
			if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
				t.Fatalf("single row %d: %v", row, err)
			}
		}
		if count, err := cl.Finalize(ctx); err != nil || count != n {
			t.Fatalf("single finalize: %d, %v", count, err)
		}
		ests := make([]float64, len(clusterQueries))
		for i, where := range clusterQueries {
			resp, err := cl.Query(ctx, where)
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = resp.Estimate
		}
		return ests
	}

	h := newHarness(t, k, n, opts, nil, fastRetry(4))
	plan, err := h.client.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	runCluster := func(roundSeed uint64, round int) []float64 {
		for row := 0; row < n; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, roundSeed)
			dup, err := h.client.ReportWithID(ctx, id, rep)
			if err != nil {
				t.Fatalf("cluster row %d: %v", row, err)
			}
			if dup {
				t.Fatalf("cluster row %d: fresh report flagged duplicate", row)
			}
		}
		count, err := h.client.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("cluster finalized %d reports, want %d", count, n)
		}
		ests := make([]float64, len(clusterQueries))
		for i, where := range clusterQueries {
			resp, err := h.client.Query(ctx, where)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Round != round {
				t.Fatalf("query served from round %d, want %d", resp.Round, round)
			}
			ests[i] = resp.Estimate
		}
		return ests
	}

	// Round 1.
	singleR1 := runSingle(devSeed)
	clusterR1 := runCluster(devSeed, 1)
	for i := range clusterR1 {
		if clusterR1[i] != singleR1[i] {
			t.Fatalf("round 1 query %q: cluster %v != single %v (not bit-identical)",
				clusterQueries[i], clusterR1[i], singleR1[i])
		}
	}

	// Cluster-wide status roll-up: every shard accounted, totals add up.
	st := h.coord.Status()
	if len(st.Shards) != k || !st.Finalized || st.Reports != n {
		t.Fatalf("cluster status after finalize: %+v", st)
	}
	total := 0
	for i, info := range st.Shards {
		if info.ID != fmt.Sprintf("shard-%d", i) {
			t.Fatalf("shard %d reports id %q", i, info.ID)
		}
		if info.Reports == 0 {
			t.Fatalf("shard %d ingested nothing: RendezvousFor is not spreading", i)
		}
		total += info.Reports
	}
	if total != n {
		t.Fatalf("per-shard reports sum to %d, want %d", total, n)
	}
	if st.Metrics["cluster.shard0.reports"] != int64(st.Shards[0].Reports) {
		t.Fatalf("shard gauge %d != status %d", st.Metrics["cluster.shard0.reports"], st.Shards[0].Reports)
	}

	// Advance to round 2; repeating the applied transition must be a no-op.
	if round, err := h.client.NextRound(ctx); err != nil || round != 2 {
		t.Fatalf("nextround: %d, %v", round, err)
	}
	if round, err := h.coord.AdvanceRound(ctx, 2); err != nil || round != 2 {
		t.Fatalf("replayed advance to 2: %d, %v", round, err)
	}
	if _, err := h.coord.AdvanceRound(ctx, 4); err == nil {
		t.Fatal("round skip 2 → 4 accepted")
	}

	// Round 2 collects a fresh perturbation of the same population.
	singleR2 := runSingle(devSeed + 100000)
	clusterR2 := runCluster(devSeed+100000, 2)
	for i := range clusterR2 {
		if clusterR2[i] != singleR2[i] {
			t.Fatalf("round 2 query %q: cluster %v != single %v (not bit-identical)",
				clusterQueries[i], clusterR2[i], singleR2[i])
		}
	}
}

// TestCoordinatorServesNoIngestRoutes: the merged round takes shard states,
// never reports, so the coordinator mounts none of its server's ingest,
// assignment, shard-state or replication routes; the round's read routes
// answer as on a single node.
func TestCoordinatorServesNoIngestRoutes(t *testing.T) {
	h := newHarness(t, 1, 100, core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 619}, nil, fastRetry(2))
	for _, route := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/v1/report", http.StatusNotFound},
		{http.MethodPost, "/v1/reports", http.StatusNotFound},
		{http.MethodGet, "/v1/assign", http.StatusNotFound},
		{http.MethodPost, "/v1/shard/state", http.StatusNotFound},
		{http.MethodGet, "/v1/replica/wal", http.StatusNotFound},
		{http.MethodGet, "/v1/plan", http.StatusOK},
		{http.MethodGet, "/v1/healthz", http.StatusOK},
	} {
		req, err := http.NewRequest(route.method, h.coordTS.URL+route.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := h.coordTS.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != route.want {
			t.Errorf("%s %s on the coordinator: %d, want %d", route.method, route.path, resp.StatusCode, route.want)
		}
	}
}

// TestAdvanceRoundRetryWalksStragglers: the coordinator walks every shard to
// the next round before its merged round advances, so an advance that fails
// mid-walk leaves the coordinator where it was, and the retry walks the
// shards the failed attempt did not reach.
func TestAdvanceRoundRetryWalksStragglers(t *testing.T) {
	const (
		k       = 2
		n       = 300
		devSeed = 623
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 625)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 627}
	ctx := context.Background()
	blackout := faultinject.NewPathBlackout(nil)
	h := newHarness(t, k, n, opts, &http.Client{Transport: blackout}, fastRetry(2))
	plan, err := h.client.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if _, err := h.client.ReportWithID(ctx, id, rep); err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
	}
	if got, err := h.coord.FinalizeRound(ctx); err != nil || got != n {
		t.Fatalf("finalize: %d, %v", got, err)
	}

	blackout.Block("/v1/nextround")
	if _, err := h.coord.AdvanceRound(ctx, 2); err == nil {
		t.Fatal("advance succeeded with no shard reachable")
	}
	if got := h.coord.Round(); got != 1 {
		t.Fatalf("a failed walk moved the coordinator to round %d", got)
	}
	blackout.Unblock("/v1/nextround")
	if got, err := h.coord.AdvanceRound(ctx, 2); err != nil || got != 2 {
		t.Fatalf("retried advance: %d, %v", got, err)
	}
	for i, srv := range h.shardSrvs {
		if got := srv.Round(); got != 2 {
			t.Fatalf("shard %d in round %d after the retried advance", i, got)
		}
	}
}
