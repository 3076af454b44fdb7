package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/reportlog"
)

// These tests pin the empty-round replay-chain fix: a sealed round with zero
// reports writes a FinalizeRecord(0), replay accepts it (sealing instead of
// estimating), and a restart or promotion chain can cross the idle round.
// Before the fix an idle round's segment carried no finalize marker, so the
// chain broke at the first round nobody reported into.

// durableShardHarness is a WAL-backed shard server over real HTTP with
// per-round segment files, restartable in place.
type durableShardHarness struct {
	t    *testing.T
	segs *reportlog.Segments
	srv  *Server
	ts   *httptest.Server
	cl   *Client
}

func newDurableShardHarness(t *testing.T, dir string, n int, opts core.Options) *durableShardHarness {
	h := &durableShardHarness{t: t, segs: reportlog.NewSegments(filepath.Join(dir, "shard.wal"))}
	h.start(n, opts)
	return h
}

// start boots (or reboots) the server from its segment chain through
// Recover, the restart path felipserver takes.
func (h *durableShardHarness) start(n int, opts core.Options) {
	t := h.t
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	srv.SetShardID("shard0")
	if err := srv.Recover(h.segs, 1); err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.cl = Dial(h.ts.URL, h.ts.Client())
}

// crash closes the HTTP listener and the WAL like a dying process would.
func (h *durableShardHarness) crash() {
	h.ts.Close()
	if err := h.srv.Close(); err != nil {
		h.t.Fatal(err)
	}
}

// submit sends count reports under deterministic ids derived from the label.
func (h *durableShardHarness) submit(label string, count int, seed uint64) {
	t := h.t
	t.Helper()
	ctx := context.Background()
	plan, err := h.cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, count, seed)
	device, err := core.NewClient(specs, plan.Epsilon, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < count; row++ {
		id := fmt.Sprintf("%s-%04d", label, row)
		rep, err := device.Perturb(DeriveGroup(id, len(specs)), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if dup, err := h.cl.ReportWithID(ctx, id, rep); err != nil || dup {
			t.Fatalf("%s row %d: dup=%v err=%v", label, row, dup, err)
		}
	}
}

// sealAndAdvance pulls the shard state (sealing the round) and opens target.
func (h *durableShardHarness) sealAndAdvance(target int) {
	t := h.t
	t.Helper()
	ctx := context.Background()
	if _, err := h.cl.ShardState(ctx); err != nil {
		t.Fatal(err)
	}
	round, err := h.cl.NextRoundTo(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if round != target {
		t.Fatalf("advanced to round %d, want %d", round, target)
	}
}

// TestRestartChainSpansIdleRound is the primary-restart half of the chaos
// drill: rounds 1 and 3 collect reports, round 2 seals empty. The restart
// replay chain must cross the idle round and land in round 3 with the dedup
// index intact.
func TestRestartChainSpansIdleRound(t *testing.T) {
	const n = 400
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.6, Seed: 31}
	h := newDurableShardHarness(t, t.TempDir(), n, opts)
	ctx := context.Background()

	h.submit("r1", 120, 61)
	h.sealAndAdvance(2)
	// Round 2: nobody reports. Seal it empty and advance.
	h.sealAndAdvance(3)
	h.submit("r3", 80, 67)

	// The idle round's segment must carry the finalize-of-zero marker.
	recs, err := reportlog.VerifySegment(mustRead(t, h.segs.Path(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != reportlog.TypeFinalize || recs[0].Reports != 0 {
		t.Fatalf("idle round segment records = %+v, want one finalize(0)", recs)
	}

	h.crash()
	h.start(n, opts)
	defer h.crash()

	st, err := h.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 {
		t.Fatalf("restart landed in round %d, want 3 (chain broke at the idle round)", st.Round)
	}
	if st.Reports != 80 {
		t.Fatalf("round 3 replayed %d reports, want 80", st.Reports)
	}

	// The replayed dedup index still covers round 3's reports: resubmitting
	// one must flag duplicate, not double-count.
	plan, _ := h.cl.Plan(ctx)
	specs, _ := plan.Specs()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, 80, 67)
	device, err := core.NewClient(specs, plan.Epsilon, 68)
	if err != nil {
		t.Fatal(err)
	}
	id := "r3-0000"
	rep, err := device.Perturb(DeriveGroup(id, len(specs)), func(attr int) int { return ds.Value(0, attr) })
	if err != nil {
		t.Fatal(err)
	}
	dup, err := h.cl.ReportWithID(ctx, id, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("resubmission after restart not flagged duplicate")
	}
}

// TestEmptySealReplayRepullIdentical pins the crash-between-seal-and-advance
// window: a shard seals an idle round, crashes, replays the finalize-of-zero,
// and the coordinator's re-pull gets a state message with the identical
// canonical checksum — and no second finalize record sneaks into the WAL.
func TestEmptySealReplayRepullIdentical(t *testing.T) {
	const n = 200
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.6, Seed: 33}
	h := newDurableShardHarness(t, t.TempDir(), n, opts)
	ctx := context.Background()

	before, err := h.cl.ShardState(ctx) // seals round 1 empty
	if err != nil {
		t.Fatal(err)
	}
	if before.Reports != 0 {
		t.Fatalf("sealed empty round exported %d reports", before.Reports)
	}
	sizeBefore := fileSize(t, h.segs.Path(1))

	h.crash()
	h.start(n, opts)
	defer h.crash()

	st, err := h.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.Round != 1 {
		t.Fatalf("replayed empty seal: status %+v, want sealed round 1", st)
	}

	// Reports stay refused after the replayed seal.
	if _, err := h.cl.ReportWithID(ctx, "late", core.Report{Proto: 0}); err == nil {
		t.Fatal("report accepted into a replayed-sealed round")
	}

	after, err := h.cl.ShardState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Checksum != before.Checksum {
		t.Fatalf("re-pulled state checksum %08x != pre-crash %08x", after.Checksum, before.Checksum)
	}
	if got := fileSize(t, h.segs.Path(1)); got != sizeBefore {
		t.Fatalf("re-pull grew the WAL %d -> %d bytes: duplicate finalize record", sizeBefore, got)
	}

	// And the chain continues: the next round opens on top of the replayed
	// empty seal.
	if round, err := h.cl.NextRoundTo(ctx, 2); err != nil || round != 2 {
		t.Fatalf("advance after replayed empty seal: round=%d err=%v", round, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
