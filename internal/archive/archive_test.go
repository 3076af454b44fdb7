package archive

import (
	"os"
	"path/filepath"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/faultinject"
	"felip/internal/fo"
	"felip/internal/query"
	"felip/internal/serve"
	"felip/internal/wire"
)

// testQueries spans the answer paths: 1-D marginals, matrix-backed pairs, and
// λ=3 recombination. Schema is MixedSchema(2, 16, 1, 4).
var testQueries = []query.Query{
	{Preds: []query.Predicate{query.NewRange(0, 4, 11)}},
	{Preds: []query.Predicate{query.NewRange(1, 0, 7)}},
	{Preds: []query.Predicate{query.NewIn(2, 0, 1)}},
	{Preds: []query.Predicate{query.NewRange(0, 4, 11), query.NewIn(2, 1, 2)}},
	{Preds: []query.Predicate{query.NewRange(0, 2, 9), query.NewRange(1, 6, 13)}},
	{Preds: []query.Predicate{query.NewRange(0, 2, 13), query.NewRange(1, 4, 11), query.NewIn(2, 0, 3)}},
}

// collectRound runs one incremental collection round with every grid forced to
// proto, returning the finalized aggregator and its exact partial states.
func collectRound(t *testing.T, proto fo.Protocol, n int, seed uint64) (*core.Aggregator, []fo.PartialState) {
	t.Helper()
	schema := dataset.MixedSchema(2, 16, 1, 4)
	ds := dataset.NewNormal().Generate(schema, n, seed)
	col, err := core.NewCollector(schema, n, core.Options{
		Strategy: core.OHG, Epsilon: 2, Seed: seed, ForceProtocol: &proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(col.Specs(), col.Epsilon(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		rep, err := cl.Perturb(col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := col.ExportPartials()
	if err != nil {
		t.Fatal(err)
	}
	return agg, parts
}

// simulateRound runs the one-shot simulated path (supports OUE, which has no
// report-level wire form); no partial states.
func simulateRound(t *testing.T, proto fo.Protocol, n int, seed uint64) *core.Aggregator {
	t.Helper()
	schema := dataset.MixedSchema(2, 16, 1, 4)
	ds := dataset.NewNormal().Generate(schema, n, seed)
	agg, err := core.Collect(ds, core.Options{
		Strategy: core.OHG, Epsilon: 2, Seed: seed, ForceProtocol: &proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func roundSnap(t *testing.T, round int, agg *core.Aggregator, parts []fo.PartialState) RoundSnapshot {
	t.Helper()
	snap := RoundSnapshot{
		Round:     round,
		Reports:   agg.N(),
		Aggregate: agg.Snapshot(),
	}
	if parts != nil {
		snap.Partials = wire.GridStates(parts)
	}
	return snap
}

func TestEnvelopeRejectsDamage(t *testing.T) {
	agg, parts := collectRound(t, fo.GRR, 400, 71)
	b, err := Encode(roundSnap(t, 1, agg, parts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("intact envelope refused: %v", err)
	}
	if _, err := Decode(b[:headerLen-1]); err == nil {
		t.Error("short header accepted")
	}
	if _, err := Decode(b[:len(b)-3]); err == nil {
		t.Error("torn payload accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), b...)
	bad[len(magic)] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("foreign version accepted")
	}
	bad = append([]byte(nil), b...)
	bad[len(b)-1] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("flipped payload byte accepted")
	}
	if _, err := Encode(RoundSnapshot{Round: 0}); err == nil {
		t.Error("round 0 encoded")
	}
}

// The property the whole subsystem rests on: write a finalized round's
// snapshot, reopen the store cold (a restart), and the restored engine must
// answer every query bit-identically to the live engine — for each frequency
// oracle, across two rounds. The exact partial counts must survive too.
func TestArchivedEngineBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		proto    fo.Protocol
		partials bool
	}{
		{"GRR", fo.GRR, true},
		{"OLH", fo.OLH, true},
		{"HR", fo.HR, true},
		{"OUE", fo.OUE, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			type roundCase struct {
				agg   *core.Aggregator
				parts []fo.PartialState
			}
			rounds := make(map[int]roundCase)
			for round := 1; round <= 2; round++ {
				var rc roundCase
				if tc.partials {
					rc.agg, rc.parts = collectRound(t, tc.proto, 500, uint64(100*round))
				} else {
					rc.agg = simulateRound(t, tc.proto, 500, uint64(100*round))
				}
				rounds[round] = rc
				if err := st.WriteRound(roundSnap(t, round, rc.agg, rc.parts)); err != nil {
					t.Fatal(err)
				}
			}

			// Cold reopen: nothing survives but the files.
			st2, err := Open(dir, Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			for round, rc := range rounds {
				live, err := serve.NewEngine(rc.agg)
				if err != nil {
					t.Fatal(err)
				}
				restored, err := st2.Engine(round)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range testQueries {
					want, err := live.Answer(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Answer(q)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("round %d query %v: restored %v != live %v (not bit-identical)", round, q, got, want)
					}
				}
				snap, err := st2.Load(round)
				if err != nil {
					t.Fatal(err)
				}
				back, err := snap.PartialStates(snap.Aggregate.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.partials {
					if back != nil {
						t.Fatalf("round %d: partials appeared from nowhere", round)
					}
					continue
				}
				if len(back) != len(rc.parts) {
					t.Fatalf("round %d: %d partials, want %d", round, len(back), len(rc.parts))
				}
				for g := range back {
					if !back[g].Equal(rc.parts[g]) {
						t.Errorf("round %d grid %d: partial state drifted across the archive", round, g)
					}
				}
				reports, bytes, ok := st2.Info(round)
				if !ok || reports != rc.agg.N() || bytes <= 0 {
					t.Fatalf("round %d info = (%d, %d, %v)", round, reports, bytes, ok)
				}
			}
		})
	}
}

// A corrupted or torn snapshot is skipped at Open — counted, never trusted,
// never allowed to shadow the valid rounds — and stray temp files are cleaned.
func TestOpenSkipsCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	agg, parts := collectRound(t, fo.GRR, 400, 73)
	for round := 1; round <= 3; round++ {
		if err := st.WriteRound(roundSnap(t, round, agg, parts)); err != nil {
			t.Fatal(err)
		}
	}
	// Round 2: silent media corruption. Round 3: torn mid-copy. Plus a stray
	// temp file from an interrupted write.
	if err := faultinject.FlipByte(filepath.Join(dir, fileName(2)), int64(headerLen)+10); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.TornCopy(filepath.Join(dir, fileName(3)), filepath.Join(dir, fileName(3)+".torn"), 40); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, fileName(3)+".torn"), filepath.Join(dir, fileName(3))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(9)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Rounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rounds after damage = %v, want [1]", got)
	}
	if st2.LatestRound() != 1 {
		t.Fatalf("latest = %d, want 1", st2.LatestRound())
	}
	if _, err := st2.Engine(2); err == nil {
		t.Error("corrupt round 2 served an engine")
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(9)+".tmp")); !os.IsNotExist(err) {
		t.Error("stray temp file survived Open")
	}
	// The valid round still answers.
	if _, err := st2.Engine(1); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionKeepsNewestK(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{RetainRounds: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	agg, parts := collectRound(t, fo.GRR, 400, 75)
	for round := 1; round <= 4; round++ {
		if err := st.WriteRound(roundSnap(t, round, agg, parts)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Rounds(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("retained rounds = %v, want [3 4]", got)
	}
	for round := 1; round <= 2; round++ {
		if _, err := os.Stat(filepath.Join(dir, fileName(round))); !os.IsNotExist(err) {
			t.Errorf("retention left round %d on disk", round)
		}
	}
	if _, err := st.Engine(3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Engine(1); err == nil {
		t.Error("dropped round 1 still served")
	}
}

func TestEngineCacheLRU(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxOpenEngines: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	agg, parts := collectRound(t, fo.GRR, 400, 77)
	for round := 1; round <= 3; round++ {
		if err := st.WriteRound(roundSnap(t, round, agg, parts)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 3; round++ {
		if _, err := st.Engine(round); err != nil {
			t.Fatal(err)
		}
		if open := st.OpenEngines(); open > 2 {
			t.Fatalf("after opening round %d: %d engines resident, bound is 2", round, open)
		}
	}
	// Round 1 was evicted (LRU); re-opening it works and stays bounded.
	if _, err := st.Engine(1); err != nil {
		t.Fatal(err)
	}
	if open := st.OpenEngines(); open > 2 {
		t.Fatalf("%d engines resident, bound is 2", open)
	}
}

func TestPlanFingerprintGuard(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	agg, parts := collectRound(t, fo.GRR, 400, 79)
	snap := roundSnap(t, 1, agg, parts)
	snap.PlanFingerprint = 0xDEADBEEF
	if err := st.WriteRound(snap); err != nil {
		t.Fatal(err)
	}
	// Matching fingerprint: served.
	same, err := Open(dir, Options{PlanFingerprint: 0xDEADBEEF, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := same.Engine(1); err != nil {
		t.Fatal(err)
	}
	// Drifted plan: refused by Load and Engine alike.
	drift, err := Open(dir, Options{PlanFingerprint: 0xCAFE, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drift.Load(1); err == nil {
		t.Error("Load served a drifted plan's snapshot")
	}
	if _, err := drift.Engine(1); err == nil {
		t.Error("Engine served a drifted plan's snapshot")
	}
}

// Window and decay aggregates over the archive equal the weighted combination
// of the live rounds' engines exactly.
func TestAnswerRangeAndDecayed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	engines := make(map[int]*serve.Engine)
	for round := 1; round <= 3; round++ {
		agg, parts := collectRound(t, fo.GRR, 300+100*round, uint64(200*round))
		if err := st.WriteRound(roundSnap(t, round, agg, parts)); err != nil {
			t.Fatal(err)
		}
		eng, err := serve.NewEngine(agg)
		if err != nil {
			t.Fatal(err)
		}
		engines[round] = eng
	}
	q := testQueries[3]
	items := func(lo, hi int, halfLife float64) []item {
		var out []item
		for round := lo; round <= hi; round++ {
			eng := engines[round]
			w := float64(eng.N())
			if halfLife > 0 {
				w = decayWeight(eng.N(), float64(hi-round), halfLife)
			}
			out = append(out, item{weight: w, answer: eng.Answer})
		}
		return out
	}

	want, err := weightedAnswer(q, items(1, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.AnswerRange(q, 1, 0) // hi=0 → newest
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("AnswerRange(1, newest) = %v, want %v", got, want)
	}

	want, err = weightedAnswer(q, items(2, 3, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	got, err = st.AnswerDecayed(q, 2, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("AnswerDecayed(2, 3, 1.5) = %v, want %v", got, want)
	}

	if _, err := st.AnswerRange(q, 4, 9); err == nil {
		t.Error("empty window answered")
	}
	if _, err := st.AnswerRange(q, 0, 2); err == nil {
		t.Error("lo=0 accepted")
	}
	if _, err := st.AnswerDecayed(q, 1, 3, 0); err == nil {
		t.Error("zero half-life accepted")
	}
}

// Rewriting a round's snapshot (idempotent re-archive) must drop any cached
// engine so the next query serves the new bytes.
func TestRewriteInvalidatesCachedEngine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	aggA, partsA := collectRound(t, fo.GRR, 400, 81)
	if err := st.WriteRound(roundSnap(t, 1, aggA, partsA)); err != nil {
		t.Fatal(err)
	}
	engA, err := st.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	aggB, partsB := collectRound(t, fo.GRR, 400, 83)
	if err := st.WriteRound(roundSnap(t, 1, aggB, partsB)); err != nil {
		t.Fatal(err)
	}
	engB, err := st.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	if engA == engB {
		t.Fatal("rewrite served the stale cached engine")
	}
	liveB, err := serve.NewEngine(aggB)
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries[0]
	want, err := liveB.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := engB.Answer(q); err != nil || got != want {
		t.Fatalf("post-rewrite answer = %v, %v; want %v", got, err, want)
	}
}
