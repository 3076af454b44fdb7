package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/faultinject"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
)

// TestClusterChaosShardCrashBitIdentical is the cluster acceptance drill: a
// 3-shard round in which one durable shard is killed mid-round and restarted
// from its write-ahead log, devices resubmit the reports whose
// acknowledgments the crash swallowed, and the coordinator's state pulls are
// cut off mid-body twice. The finalized cluster must answer every query
// bit-for-bit identically to a fault-free single server that saw the same
// report multiset — faults may cost retries, never answers.
func TestClusterChaosShardCrashBitIdentical(t *testing.T) {
	const (
		k       = 3
		n       = 2400
		crashed = 1 // the shard that dies
		devSeed = 361
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 363)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 365}
	ctx := context.Background()

	// ---- Fault-free single-node reference.
	refSrv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	refSrv.SetLogger(t.Logf)
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	refCl := httpapi.Dial(refTS.URL, refTS.Client())
	plan, err := refCl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if _, err := refCl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatalf("reference row %d: %v", row, err)
		}
	}
	if count, err := refCl.Finalize(ctx); err != nil || count != n {
		t.Fatalf("reference finalize: %d, %v", count, err)
	}
	refEsts := make([]float64, len(clusterQueries))
	for i, where := range clusterQueries {
		resp, err := refCl.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		refEsts[i] = resp.Estimate
	}

	// ---- The cluster. The crash-designated shard is durable; bootShard can
	// rebuild it from its WAL at the same address.
	walPath := filepath.Join(t.TempDir(), "shard1.wal")
	bootShard := func(addr string) (*httptest.Server, string) {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		srv.SetShardID(fmt.Sprintf("shard-%d", crashed))
		l, recs, err := reportlog.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.UseWAL(l, recs); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		if addr != "" {
			// Rebind the crashed shard's address: the cluster config names it.
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			ts.Listener.Close()
			ts.Listener = ln
		}
		ts.Start()
		return ts, ts.Listener.Addr().String()
	}

	var bases []string
	var tss []*httptest.Server
	var shardAddr string
	for i := 0; i < k; i++ {
		if i == crashed {
			ts, addr := bootShard("")
			tss = append(tss, ts)
			bases = append(bases, "http://"+addr)
			shardAddr = addr
			continue
		}
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		srv.SetShardID(fmt.Sprintf("shard-%d", i))
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		tss = append(tss, ts)
		bases = append(bases, ts.URL)
	}

	// The coordinator's first two state pulls die mid-transfer; its retry
	// policy must ride them out and receive identical states on the re-pull.
	pf := faultinject.NewPartialFetch(nil, "/v1/shard/state", 2)
	coord, err := New(Config{
		Schema:     schema,
		N:          n,
		Opts:       opts,
		Shards:     bases,
		HTTPClient: &http.Client{Transport: pf},
		Retry:      fastRetry(8),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()
	ccl := NewClient(coordTS.URL, bases, nil, fastRetry(8))

	// First half of the population reports, then the shard dies.
	for row := 0; row < n/2; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if _, err := ccl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatalf("cluster row %d: %v", row, err)
		}
	}
	tss[crashed].Close()

	// Restart from the WAL at the same address. Devices whose acknowledgment
	// the crash may have swallowed resubmit verbatim; the replayed dedup index
	// must recognize every one and recount none. The resubmissions are the
	// crashed shard's own ids, picked by the router the client routes by.
	ts2, _ := bootShard(shardAddr)
	defer ts2.Close()
	names := make([]string, k)
	for i := range names {
		names[i] = StaticShardName(i)
	}
	const resubmits = 25
	resubmitted := 0
	for row := 0; row < n/2 && resubmitted < resubmits; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if RendezvousFor(id, names) != crashed {
			continue
		}
		if base, _ := ccl.route(id); base != bases[crashed] {
			t.Fatalf("resubmit row %d routes to %s, not the restarted shard %s", row, base, bases[crashed])
		}
		resubmitted++
		dup, err := ccl.ReportWithID(ctx, id, rep)
		if err != nil || !dup {
			t.Fatalf("resubmit row %d across shard restart: dup=%v err=%v", row, dup, err)
		}
	}
	if resubmitted != resubmits {
		t.Fatalf("%d of the first %d rows landed on the crashed shard, want %d resubmissions", resubmitted, n/2, resubmits)
	}

	// Second half of the round, then the cluster finalize (which rides out the
	// truncated state pulls).
	for row := n / 2; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if _, err := ccl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatalf("cluster row %d: %v", row, err)
		}
	}
	count, err := ccl.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("cluster finalized %d reports for %d distinct users", count, n)
	}
	if pf.Injected() != 2 {
		t.Fatalf("injected %d partial fetches, want 2", pf.Injected())
	}

	// The crash must be visible in the coordinator's roll-up (the shard
	// replayed its half of the first n/2 rows) — and invisible in the answers.
	st := coord.Status()
	if st.Shards[crashed].WALReplayed == 0 {
		t.Fatalf("crashed shard reports no WAL replay: %+v", st.Shards[crashed])
	}
	if g := st.Metrics[fmt.Sprintf("cluster.shard%d.wal_replayed", crashed)]; g != int64(st.Shards[crashed].WALReplayed) {
		t.Fatalf("wal_replayed gauge %d != status %d", g, st.Shards[crashed].WALReplayed)
	}
	for i, where := range clusterQueries {
		resp, err := ccl.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != refEsts[i] {
			t.Errorf("query %q: cluster %v != reference %v (crash left a trace)",
				where, resp.Estimate, refEsts[i])
		}
	}
}

// TestShardStateRepullAfterCrashIsIdentical drills the narrower invariant
// directly: seal a durable shard that refused some reports, pull its state,
// crash and restart it from the WAL, and pull again — the two messages must
// match checksum-for-checksum, rejected count included (only the replay
// counter, excluded from the checksum, may differ).
func TestShardStateRepullAfterCrashIsIdentical(t *testing.T) {
	const n = 600
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 467)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 461}
	ctx := context.Background()
	walPath := filepath.Join(t.TempDir(), "shard.wal")

	boot := func(addr string) (*httptest.Server, string) {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		srv.SetShardID("lone-shard")
		l, recs, err := reportlog.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.UseWAL(l, recs); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		if addr != "" {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			ts.Listener.Close()
			ts.Listener = ln
		}
		ts.Start()
		return ts, ts.Listener.Addr().String()
	}

	ts, addr := boot("")
	cl := httpapi.DialRetrying("http://"+addr, nil, fastRetry(4))
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, 463)
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}
	// Reports for a group the plan lacks are refused and counted.
	const refused = 3
	for i := 0; i < refused; i++ {
		if _, err := cl.ReportWithID(ctx, fmt.Sprintf("bad-%d", i), core.Report{Group: 99, Proto: specs[0].Proto}); err == nil {
			t.Fatal("report for group 99 accepted")
		}
	}
	first, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reports != n || first.Rejected != refused || first.WALReplayed != 0 {
		t.Fatalf("first pull: %d reports, %d rejected, %d replayed", first.Reports, first.Rejected, first.WALReplayed)
	}
	// A pull seals the round: fresh reports must now be refused.
	id, rep := deviceReport(t, specs, opts.Epsilon, ds, 0, 999)
	if _, err := cl.ReportWithID(ctx, id, rep); err == nil {
		t.Fatal("sealed shard accepted a new report")
	}

	ts.Close()
	ts2, _ := boot(addr)
	defer ts2.Close()

	second, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.WALReplayed != n {
		t.Fatalf("restarted shard replayed %d records, want %d", second.WALReplayed, n)
	}
	if second.Checksum != first.Checksum || second.Reports != first.Reports || second.Rejected != first.Rejected || second.Round != first.Round {
		t.Fatalf("re-pulled state differs: first %08x/%d reports/%d rejected, second %08x/%d/%d",
			first.Checksum, first.Reports, first.Rejected, second.Checksum, second.Reports, second.Rejected)
	}
	// And a third pull from the same process serves the cache, verbatim.
	third, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if third.Checksum != second.Checksum || third.WALReplayed != second.WALReplayed {
		t.Fatal("cached re-pull differs from sealed state")
	}
}
