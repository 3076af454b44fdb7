package core

import (
	"bytes"
	"strings"
	"testing"

	"felip/internal/query"
)

func TestSnapshotRoundTrip(t *testing.T) {
	agg, _ := collectFor(t, OHG, 20000, 51)
	var buf bytes.Buffer
	if err := agg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != agg.N() || restored.Schema().Len() != agg.Schema().Len() {
		t.Fatalf("metadata mismatch: %d/%d", restored.N(), restored.Schema().Len())
	}
	if len(restored.Specs()) != len(agg.Specs()) {
		t.Fatalf("spec count %d != %d", len(restored.Specs()), len(agg.Specs()))
	}
	// Identical answers, matrix-backed pairs included: every grid bit and
	// every parameter the engine reads survive the round trip.
	hw, _ := hashAgg(agg)
	hg, _ := hashAgg(restored)
	if hg != hw {
		t.Errorf("restored grid hash %#x != original %#x", hg, hw)
	}
	if restored.Strategy() != agg.Strategy() || restored.IPFThreshold() != agg.IPFThreshold() {
		t.Errorf("answer parameters changed across restore")
	}
	// The snapshot keeps recording the fixed sweep caps, so its bytes do not
	// change.
	if s := restored.Snapshot(); s.MatrixMaxIter != 50 || s.LambdaMaxIter != 100 {
		t.Errorf("snapshot sweep caps %d, %d; want 50, 100", s.MatrixMaxIter, s.LambdaMaxIter)
	}
	// Expected-error metadata survives too.
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewIn(2, 0, 1)}}
	weWant, err := agg.ExpectedError(q)
	if err != nil {
		t.Fatal(err)
	}
	weGot, err := restored.ExpectedError(q)
	if err != nil {
		t.Fatal(err)
	}
	if weGot != weWant {
		t.Errorf("expected error changed across restore: %v != %v", weGot, weWant)
	}
}

func TestRestoreValidation(t *testing.T) {
	agg, _ := collectFor(t, OUG, 5000, 53)
	good := agg.Snapshot()

	bad := good
	bad.Version = 99
	if _, err := Restore(bad); err == nil {
		t.Error("wrong version accepted")
	}

	bad = good
	bad.Strategy = "XYZ"
	if _, err := Restore(bad); err == nil {
		t.Error("unknown strategy accepted")
	}

	bad = good
	bad.Epsilon = 0
	if _, err := Restore(bad); err == nil {
		t.Error("eps=0 accepted")
	}

	bad = good
	bad.Grids = nil
	if _, err := Restore(bad); err == nil {
		t.Error("empty grids accepted")
	}

	bad = good
	bad.Grids = append([]GridSnapshot(nil), good.Grids...)
	bad.Grids[0].Proto = "???"
	if _, err := Restore(bad); err == nil {
		t.Error("unknown grid protocol accepted")
	}

	bad = good
	bad.Grids = append([]GridSnapshot(nil), good.Grids...)
	bad.Grids[0].Freq = bad.Grids[0].Freq[:1]
	if _, err := Restore(bad); err == nil {
		t.Error("wrong freq length accepted")
	}

	bad = good
	bad.Grids = append([]GridSnapshot(nil), good.Grids...)
	bad.Grids[0].AttrX = 99
	if _, err := Restore(bad); err == nil {
		t.Error("out-of-range attribute accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("empty snapshot accepted")
	}
}
