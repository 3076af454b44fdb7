package archive

import (
	"math"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/query"
)

// archiveBatches collects each batch as one OUG round (seeds drawn in turn
// from seed) and archives it as rounds 1, 2, ….
func archiveBatches(t *testing.T, st *Store, seed uint64, batches ...*dataset.Dataset) {
	t.Helper()
	seeds := fo.NewRand(seed)
	for i, batch := range batches {
		agg, err := core.Collect(batch, core.Options{Strategy: core.OUG, Epsilon: 2, Seed: seeds.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteRound(RoundSnapshot{Round: i + 1, Reports: agg.N(), Aggregate: agg.Snapshot()}); err != nil {
			t.Fatal(err)
		}
	}
}

func answerRound(t *testing.T, st *Store, round int, q query.Query) float64 {
	t.Helper()
	eng, err := st.Engine(round)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// An empty archive answers nothing: no round, no range, no decayed range.
func TestAnswersBeforeIngest(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 0, 15), query.NewRange(1, 0, 15)}}
	if _, err := st.Engine(1); err == nil {
		t.Error("Engine on an empty archive accepted")
	}
	if _, err := st.AnswerRange(q, 1, 0); err == nil {
		t.Error("AnswerRange on an empty archive accepted")
	}
	if _, err := st.AnswerDecayed(q, 1, 0, 1); err == nil {
		t.Error("AnswerDecayed on an empty archive accepted")
	}
}

// A stream of batches, one archived round each: every round answers near
// its own truth, and the range over both near the report-weighted mean.
func TestWindowedCollection(t *testing.T) {
	s := dataset.MixedSchema(2, 32, 1, 4)
	st, err := Open(t.TempDir(), Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 0, 15), query.NewRange(1, 0, 15)}}

	// Round 1: uniform data — answer ≈ 0.25. Round 2: data concentrated
	// low — answer ≈ higher.
	uni := dataset.NewUniform().Generate(s, 30000, 1)
	norm := dataset.NewNormal().Generate(s, 30000, 2)
	archiveBatches(t, st, 5, uni, norm)
	if rounds := st.Rounds(); len(rounds) != 2 || st.LatestRound() != 2 {
		t.Fatalf("rounds=%v latest=%d", rounds, st.LatestRound())
	}

	truthU := query.Evaluate(q, [][]uint16{uni.Col(0), uni.Col(1), uni.Col(2)})
	truthN := query.Evaluate(q, [][]uint16{norm.Col(0), norm.Col(1), norm.Col(2)})
	if got := answerRound(t, st, 2, q); math.Abs(got-truthN) > 0.06 {
		t.Errorf("latest round: got %v, truth %v", got, truthN)
	}
	if got := answerRound(t, st, 1, q); math.Abs(got-truthU) > 0.06 {
		t.Errorf("round 1: got %v, truth %v", got, truthU)
	}
	horizon, err := st.AnswerRange(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantHorizon := (truthU + truthN) / 2 // equal batch sizes
	if math.Abs(horizon-wantHorizon) > 0.06 {
		t.Errorf("horizon: got %v, want ~%v", horizon, wantHorizon)
	}
}

// Strong decay sits between the plain range average and the newest round,
// closer to the newest.
func TestDecayedLeansToNewest(t *testing.T) {
	s := dataset.MixedSchema(2, 32, 1, 4)
	st, err := Open(t.TempDir(), Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 0, 15), query.NewRange(1, 0, 15)}}
	archiveBatches(t, st, 5,
		dataset.NewUniform().Generate(s, 20000, 1),
		dataset.NewNormal().Generate(s, 20000, 2))
	horizon, err := st.AnswerRange(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := st.AnswerDecayed(q, 1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	latest := answerRound(t, st, 2, q)
	if math.Abs(decayed-latest) > math.Abs(horizon-latest) {
		t.Errorf("decayed %v not closer to latest %v than horizon %v", decayed, latest, horizon)
	}
	if _, err := st.AnswerDecayed(q, 1, 0, 0); err == nil {
		t.Error("zero half-life accepted")
	}
}

// A stream of four batches into an archive that keeps two rounds: the
// evicted rounds answer nothing, alone or in a range, and a range over the
// whole history answers from the retained rounds only.
func TestRingEviction(t *testing.T) {
	s := dataset.MixedSchema(2, 16, 1, 4)
	st, err := Open(t.TempDir(), Options{RetainRounds: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]*dataset.Dataset, 4)
	for i := range batches {
		batches[i] = dataset.NewUniform().Generate(s, 2000, uint64(i+1))
	}
	archiveBatches(t, st, 3, batches...)
	if rounds := st.Rounds(); len(rounds) != 2 || st.LatestRound() != 4 {
		t.Fatalf("rounds=%v latest=%d, want 2 rounds ending at 4", rounds, st.LatestRound())
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 0, 7), query.NewRange(1, 0, 7)}}
	if _, err := st.Engine(1); err == nil {
		t.Error("evicted round still answerable")
	}
	if _, err := st.AnswerRange(q, 1, 2); err == nil {
		t.Error("range over evicted rounds only still answerable")
	}
	answerRound(t, st, 4, q)
	whole, err := st.AnswerRange(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	retained, err := st.AnswerRange(q, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if whole != retained {
		t.Errorf("range over all history %v, over the retained rounds %v", whole, retained)
	}
}
