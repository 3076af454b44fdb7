package cluster

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
)

// TestPromotionChainSpansIdleRound is the promotion half of the idle-round
// drill: the primary collects in rounds 1 and 3 but seals round 2 with zero
// reports. The follower ships all three segments — the idle one carries just
// the finalize-of-zero marker — and after the primary dies, Promote must
// replay the chain across the idle round and take over in round 3 with the
// dedup index intact. Before the fix the idle segment was empty, the replay
// chain broke at round 2, and the shard was unpromotable.
func TestPromotionChainSpansIdleRound(t *testing.T) {
	const (
		n       = 400
		devSeed = 733
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 739)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.5, Seed: 743}
	ctx := context.Background()
	dir := t.TempDir()

	_, ts0 := newDurableShard(t, "shard0", filepath.Join(dir, "primary.wal"), n, opts)
	cl := httpapi.DialRetrying(ts0.URL, ts0.Client(), fastRetry(3))
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	// The follower never talks to a coordinator in this drill (promotion is
	// invoked directly); the address only has to be non-empty.
	fol, err := NewFollower(FollowerConfig{
		Schema: schema, N: n, Opts: opts,
		Name:        "shard0",
		Base:        "http://follower.invalid",
		Primary:     ts0.URL,
		Coordinator: "http://coordinator.invalid",
		WALPath:     filepath.Join(dir, "follower.wal"),
		Retry:       fastRetry(3),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	submit := func(fromRow, count int) {
		t.Helper()
		for row := fromRow; row < fromRow+count; row++ {
			id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
			if dup, err := cl.ReportWithID(ctx, id, rep); err != nil || dup {
				t.Fatalf("row %d: dup=%v err=%v", row, dup, err)
			}
		}
	}
	sealAndAdvance := func(target int) {
		t.Helper()
		if _, err := cl.ShardState(ctx); err != nil {
			t.Fatal(err)
		}
		if round, err := cl.NextRoundTo(ctx, target); err != nil || round != target {
			t.Fatalf("advance to %d: round=%d err=%v", target, round, err)
		}
	}

	submit(0, 60)
	sealAndAdvance(2)
	// Round 2: nobody reports. Seal it empty and move on.
	sealAndAdvance(3)
	submit(100, 40)

	// Ship the whole chain — the idle round's segment included.
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

	// The shipped idle segment is exactly one finalize-of-zero record.
	raw, err := os.ReadFile(fol.segs.Path(2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := reportlog.VerifySegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != reportlog.TypeFinalize || recs[0].Reports != 0 {
		t.Fatalf("shipped idle segment records = %+v, want one finalize(0)", recs)
	}

	// Kill the primary and promote. The replay chain must cross the idle
	// round: round 1 replays its reports and finalize, round 2 replays the
	// finalize-of-zero, round 3 replays its open tail.
	ts0.Close()
	resp, err := fol.Promote(3)
	if err != nil {
		t.Fatalf("promotion across idle round: %v", err)
	}
	if resp.Round != 3 {
		t.Fatalf("promoted into round %d, want 3", resp.Round)
	}
	// The chain holds 100 reports and two finalize markers; only the reports
	// count as reports.
	if resp.Reports != 100 || resp.Replayed != 102 {
		t.Fatalf("promotion replayed %d records holding %d reports, want 102 and 100", resp.Replayed, resp.Reports)
	}

	folTS := httptest.NewServer(fol.Handler())
	defer folTS.Close()
	pcl := httpapi.Dial(folTS.URL, folTS.Client())
	st, err := pcl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 || st.Reports != 40 {
		t.Fatalf("promoted status round=%d reports=%d, want round 3 with 40 reports", st.Round, st.Reports)
	}

	// The promoted replica's dedup index survived the chain: resubmitting an
	// acknowledged round-3 report flags duplicate, never double-counts.
	id, rep := deviceReport(t, specs, opts.Epsilon, ds, 100, devSeed)
	dup, err := pcl.ReportWithID(ctx, id, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("resubmission after promotion not flagged duplicate")
	}
}

// TestFollowerRefusesTruncatedArchivedRound pins the empty-versus-truncated
// distinction on the replication plane: a primary that archived a round and
// reclaimed its WAL segment must not answer a follower's pull for that round
// with an innocent empty chunk. The chunk says Truncated, and the follower
// refuses to replicate — a replica seeded from nothing cannot reconstruct an
// archived round, and silently skipping it would ship a chain that is not
// bit-identical to the primary's history.
func TestFollowerRefusesTruncatedArchivedRound(t *testing.T) {
	const (
		n       = 300
		devSeed = 809
	)
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 811)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.8, Seed: 821}
	ctx := context.Background()
	dir := t.TempDir()

	srv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	srv.SetShardID("shard0")
	segs := reportlog.NewSegments(filepath.Join(dir, "primary.wal"))
	store, err := archive.Open(filepath.Join(dir, "arch"), archive.Options{
		PlanFingerprint: srv.PlanFingerprint(),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseArchive(store, segs); err != nil {
		t.Fatal(err)
	}
	if err := srv.Recover(segs, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := httpapi.DialRetrying(ts.URL, ts.Client(), fastRetry(3))

	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 120; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, devSeed)
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}
	// Finalize archives round 1 and truncates its segment.
	if count, err := cl.Finalize(ctx); err != nil || count != 120 {
		t.Fatalf("finalize: %d, %v", count, err)
	}
	if _, err := os.Stat(segs.Path(1)); !os.IsNotExist(err) {
		t.Fatal("round-1 segment survived archiving; drill premise broken")
	}
	if _, err := cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}

	// A follower joining now asks for round 1 from byte 0. The primary must
	// mark the chunk truncated, not empty...
	chunk, err := cl.ReplicaWAL(ctx, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.Truncated {
		t.Fatalf("archived round served as chunk %+v, want Truncated", chunk)
	}
	if err := chunk.Verify(); err != nil {
		t.Fatalf("truncated chunk fails self-verification: %v", err)
	}

	// ...and the follower must refuse to replicate rather than skip the round.
	fol, err := NewFollower(FollowerConfig{
		Schema: schema, N: n, Opts: opts,
		Name:        "shard0",
		Base:        "http://follower.invalid",
		Primary:     ts.URL,
		Coordinator: "http://coordinator.invalid",
		WALPath:     filepath.Join(dir, "follower.wal"),
		Retry:       fastRetry(3),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.SyncOnce(ctx); err == nil {
		t.Fatal("follower replicated past an archived round")
	} else if !strings.Contains(err.Error(), "archived") {
		t.Fatalf("refusal does not name the archive as the cause: %v", err)
	}
	// Nothing was written locally: the refusal left no segment to mislead a
	// later promotion.
	if rounds, err := fol.segs.Existing(); err != nil || len(rounds) != 0 {
		t.Fatalf("follower segments after refusal = %v (err %v), want none", rounds, err)
	}
}
