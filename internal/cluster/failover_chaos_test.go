package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// newDurableShard starts a WAL-backed shard server over real HTTP, booted
// through Recover the way felipserver boots one.
func newDurableShard(t *testing.T, name, walPath string, n int, opts core.Options) (*httpapi.Server, *httptest.Server) {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	srv.SetShardID(name)
	if err := srv.Recover(reportlog.NewSegments(walPath), 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestClusterFailoverBitIdentical is the PR's chaos acceptance drill: a
// primary is killed mid-round after its WAL was shipped to a follower; the
// coordinator notices the lapsed heartbeat and promotes the follower; devices
// whose acknowledged reports lived on the dead primary resubmit and are
// deduplicated by the promoted replica's replayed index; the finalized round
// answers every query bit-identically to a single-node server over the same
// report multiset.
func TestClusterFailoverBitIdentical(t *testing.T) {
	const (
		n       = 1200
		devSeed = 907
		timeout = 10 * time.Second
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 911)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.4, Seed: 913}
	ctx := context.Background()
	dir := t.TempDir()

	// Single-node reference over the full report multiset.
	reference := func() []float64 {
		srv, err := httpapi.NewServer(schema, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := httpapi.Dial(ts.URL, nil)
		plan, err := cl.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := plan.Specs()
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < n; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
			if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
				t.Fatal(err)
			}
		}
		if count, err := cl.Finalize(ctx); err != nil || count != n {
			t.Fatalf("reference finalize: %d, %v", count, err)
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
	}()

	// Elastic cluster: no static shards; two primaries register themselves,
	// and shard0 gets a WAL-shipping follower. Liveness runs on a fake clock.
	clk := newFakeClock()
	coord, err := New(Config{
		Schema: schema, N: n, Opts: opts,
		HeartbeatTimeout: timeout,
		Clock:            clk.now,
		Retry:            fastRetry(3),
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	_, ts0 := newDurableShard(t, "shard0", filepath.Join(dir, "shard0.wal"), n, opts)
	_, ts1 := newDurableShard(t, "shard1", filepath.Join(dir, "shard1.wal"), n, opts)
	for name, ts := range map[string]*httptest.Server{"shard0": ts0, "shard1": ts1} {
		if _, err := coord.RegisterShard(wire.RegisterMessage{Name: name, Base: ts.URL, Role: wire.RolePrimary}); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Heartbeat(wire.HeartbeatMessage{Name: name, Base: ts.URL, Role: wire.RolePrimary, Round: 1}); err != nil {
			t.Fatal(err)
		}
	}

	fol, err := NewFollower(FollowerConfig{
		Schema: schema, N: n, Opts: opts,
		Name:        "shard0",
		Base:        "http://pending", // the real URL exists only once the handler is served; set below
		Primary:     ts0.URL,
		Coordinator: coordTS.URL,
		WALPath:     filepath.Join(dir, "follower0.wal"),
		Retry:       fastRetry(3),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	folTS := httptest.NewServer(fol.Handler())
	t.Cleanup(folTS.Close)
	fol.cfg.Base = folTS.URL
	if err := fol.Register(ctx); err != nil {
		t.Fatal(err)
	}

	// Devices dial the coordinator and route by the live membership.
	client, err := DialCluster(ctx, coordTS.URL, nil, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := client.Epoch()
	plan, err := client.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	// First half reports, then replicate until the follower is caught up —
	// the drill's premise is an intact replica at kill time; a real
	// deployment gets the same guarantee from devices resubmitting whatever
	// the dead primary never acknowledged.
	half := n / 2
	for row := 0; row < half; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if dup, err := client.ReportWithID(ctx, id, rep); err != nil || dup {
			t.Fatalf("row %d: dup=%v err=%v", row, dup, err)
		}
	}
	for i := 0; ; i++ {
		caughtUp, err := fol.SyncOnce(ctx)
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if caughtUp {
			break
		}
		if i > 10000 {
			t.Fatal("follower never caught up")
		}
	}
	if segs, bytes := fol.Lag(); segs != 0 || bytes != 0 {
		t.Fatalf("lag after catch-up: %d segments, %d bytes", segs, bytes)
	}
	if err := fol.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	// The follower's lag is on the status page.
	st := coord.Status()
	if st.Metrics["cluster.shard0.replication_lag_segments"] != 0 {
		t.Fatalf("replication lag gauge = %d", st.Metrics["cluster.shard0.replication_lag_segments"])
	}

	// Kill the primary mid-round. Time passes; the survivors keep beating,
	// the dead primary does not.
	ts0.Close()
	clk.advance(timeout + time.Second)
	if _, err := coord.Heartbeat(wire.HeartbeatMessage{Name: "shard1", Base: ts1.URL, Role: wire.RolePrimary, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fol.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	promoted, err := coord.CheckLiveness(ctx)
	if err != nil {
		t.Fatalf("liveness: %v", err)
	}
	if len(promoted) != 1 || promoted[0] != "shard0" {
		t.Fatalf("promoted = %v, want [shard0]", promoted)
	}
	st = coord.Status()
	if st.Failovers != 1 || st.Metrics["cluster.failovers_total"] != 1 {
		t.Fatalf("failovers = %d / gauge %d", st.Failovers, st.Metrics["cluster.failovers_total"])
	}
	if st.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance on failover: %d", st.Epoch)
	}
	if st.Metrics["cluster.members"] != 2 {
		t.Fatalf("cluster.members gauge = %d", st.Metrics["cluster.members"])
	}
	for _, m := range st.Members {
		if m.Name == "shard0" && m.Base != folTS.URL {
			t.Fatalf("shard0 routed to %s after failover, want %s", m.Base, folTS.URL)
		}
	}

	// The routing client still holds the dead primary's address. Resubmit a
	// few already-acknowledged shard0 reports: the submission fails over to
	// the promoted replica, whose replayed dedup index flags every one as a
	// duplicate — the failover preserved exactly-once counting bit for bit.
	names := []string{"shard0", "shard1"}
	resubmitted := 0
	for row := 0; row < half && resubmitted < 25; row++ {
		id := fmt.Sprintf("user-%d-%d", row, devSeed)
		if names[RendezvousFor(id, names)] != "shard0" {
			continue
		}
		_, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		dup, err := client.ReportWithID(ctx, id, rep)
		if err != nil {
			t.Fatalf("resubmit row %d after failover: %v", row, err)
		}
		if !dup {
			t.Fatalf("resubmit row %d not flagged duplicate: the promoted replica lost the dedup index", row)
		}
		resubmitted++
	}
	if resubmitted == 0 {
		t.Fatal("no shard0 rows found to resubmit")
	}
	if client.Epoch() <= epochBefore {
		t.Fatal("client never refreshed its membership")
	}

	// Second half lands on the promoted replica and the surviving primary.
	for row := half; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if dup, err := client.ReportWithID(ctx, id, rep); err != nil || dup {
			t.Fatalf("row %d after failover: dup=%v err=%v", row, dup, err)
		}
	}

	// Finalize merges the promoted replica's state with the survivor's; the
	// count and every query answer must match the single-node reference
	// exactly.
	count, err := client.Finalize(ctx)
	if err != nil {
		t.Fatalf("finalize after failover: %v", err)
	}
	if count != n {
		t.Fatalf("cluster finalized %d reports, want %d", count, n)
	}
	for i, where := range clusterQueries {
		resp, err := client.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != reference[i] {
			t.Fatalf("query %q: failover cluster %v != single node %v (not bit-identical)",
				where, resp.Estimate, reference[i])
		}
	}
}

// TestPromotedFollowerStateBitIdentical pins the replication invariant at the
// state-message level: the follower's replayed shard state carries the same
// canonical checksum as the primary's sealed export.
func TestPromotedFollowerStateBitIdentical(t *testing.T) {
	const n = 300
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 921)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 923}
	ctx := context.Background()
	dir := t.TempDir()

	_, ts := newDurableShard(t, "shard0", filepath.Join(dir, "primary.wal"), n, opts)
	cl := httpapi.Dial(ts.URL, nil)
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, 931)
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}
	primaryState, err := cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A follower needs no coordinator for this: point one at the primary and
	// ship until caught up (the sealed round's finalize record ships too).
	fol, err := NewFollower(FollowerConfig{
		Schema: schema, N: n, Opts: opts,
		Name: "shard0", Base: "http://unused", Primary: ts.URL, Coordinator: ts.URL,
		WALPath: filepath.Join(dir, "follower.wal"),
		Retry:   fastRetry(3),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		caughtUp, err := fol.SyncOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if caughtUp {
			break
		}
		if i > 10000 {
			t.Fatal("follower never caught up")
		}
	}

	resp, err := fol.Promote(1)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if resp.Round != 1 {
		t.Fatalf("promoted into round %d", resp.Round)
	}
	folTS := httptest.NewServer(fol.Handler())
	t.Cleanup(folTS.Close)
	replicaState, err := httpapi.Dial(folTS.URL, nil).ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if replicaState.Checksum != primaryState.Checksum {
		t.Fatalf("replica state checksum %08x != primary %08x: promotion is not bit-identical",
			replicaState.Checksum, primaryState.Checksum)
	}
	if replicaState.ShardID != "shard0" || replicaState.Reports != n {
		t.Fatalf("replica state: %+v", replicaState)
	}

	// Promotion is idempotent.
	if again, err := fol.Promote(1); err != nil || again.Round != 1 {
		t.Fatalf("re-promote: %+v, %v", again, err)
	}
}

// TestPromotionRefusedOnCorruptSegment pins the "promote only after the
// shipped-segment CRC chain verifies" invariant: one flipped byte in the
// follower's local chain refuses the takeover.
func TestPromotionRefusedOnCorruptSegment(t *testing.T) {
	const n = 120
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 941)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 943}
	ctx := context.Background()
	dir := t.TempDir()

	_, ts := newDurableShard(t, "shard0", filepath.Join(dir, "primary.wal"), n, opts)
	cl := httpapi.Dial(ts.URL, nil)
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, 947)
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}

	walPath := filepath.Join(dir, "follower.wal")
	fol, err := NewFollower(FollowerConfig{
		Schema: schema, N: n, Opts: opts,
		Name: "shard0", Base: "http://unused", Primary: ts.URL, Coordinator: ts.URL,
		WALPath: walPath,
		Retry:   fastRetry(3),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		caughtUp, err := fol.SyncOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if caughtUp {
			break
		}
		if i > 10000 {
			t.Fatal("follower never caught up")
		}
	}

	// Flip one byte in the middle of the shipped segment.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := fol.Promote(1); err == nil {
		t.Fatal("promotion accepted a corrupt segment chain")
	}
}
