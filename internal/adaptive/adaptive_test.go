package adaptive

import (
	"math"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/query"
	"felip/internal/serve"
)

func spikySchema() *domain.Schema {
	return dataset.MixedSchema(2, 128, 1, 4)
}

func engineFor(t *testing.T, agg *Aggregator) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(agg.Inner())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOptionsValidation(t *testing.T) {
	ds := dataset.NewUniform().Generate(spikySchema(), 1000, 1)
	if _, err := Collect(ds, Options{Phase1Fraction: 1.5, Core: core.Options{Strategy: core.OHG, Epsilon: 1}}); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := Collect(ds, Options{Phase1Fraction: -0.1, Core: core.Options{Strategy: core.OHG, Epsilon: 1}}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := Collect(ds, Options{Phase1Cells: 1, Core: core.Options{Strategy: core.OHG, Epsilon: 1}}); err == nil {
		t.Error("1-cell phase-1 grid accepted")
	}
	if _, err := Collect(ds, Options{Core: core.Options{Strategy: core.OHG}}); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestCollectPhases(t *testing.T) {
	ds := dataset.NewLoanSim().Generate(spikySchema(), 40000, 3)
	agg, err := Collect(ds, Options{
		Core:           core.Options{Strategy: core.OHG, Epsilon: 1, Seed: 5},
		Phase1Fraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Phase1N() != 10000 || agg.Phase2N() != 30000 {
		t.Errorf("phases = %d/%d, want 10000/30000", agg.Phase1N(), agg.Phase2N())
	}
	// Marginals learned for both numerical attributes.
	if len(agg.Marginals) != 2 {
		t.Fatalf("marginals for %d attributes, want 2", len(agg.Marginals))
	}
	for attr, m := range agg.Marginals {
		if len(m) != 128 {
			t.Errorf("attr %d marginal length %d", attr, len(m))
		}
		var sum float64
		for _, f := range m {
			if f < 0 {
				t.Errorf("attr %d: negative marginal entry", attr)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("attr %d marginal sums to %v", attr, sum)
		}
	}
	if agg.Inner() == nil {
		t.Fatal("inner aggregator missing")
	}
}

func TestEquiMassAxesFollowData(t *testing.T) {
	// Loan-sim amount is spiked around 0.4·d: the equi-mass 1-D axis must
	// bin the spike region more finely than the tails.
	ds := dataset.NewLoanSim().Generate(spikySchema(), 60000, 7)
	agg, err := Collect(ds, Options{
		Core: core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range agg.Specs() {
		if !sp.Is1D() || sp.AttrX != 0 {
			continue
		}
		ax := sp.AxisX
		// Width of the cell containing the spike (0.4·128 ≈ 51) vs the last
		// cell (sparse tail).
		spikeCell := ax.CellOf(51)
		tailCell := ax.Cells() - 1
		if ax.Width(spikeCell) > ax.Width(tailCell) {
			t.Errorf("spike cell width %d > tail cell width %d — binning not data-aware",
				ax.Width(spikeCell), ax.Width(tailCell))
		}
		return
	}
	t.Fatal("no 1-D grid found for attr 0")
}

func TestAnswerAccuracy(t *testing.T) {
	ds := dataset.NewLoanSim().Generate(spikySchema(), 60000, 13)
	agg, err := Collect(ds, Options{
		Core: core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, agg)
	cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2)}
	qs := []query.Query{
		{Preds: []query.Predicate{query.NewRange(0, 40, 70)}},
		{Preds: []query.Predicate{query.NewRange(0, 40, 70), query.NewRange(1, 0, 63)}},
		{Preds: []query.Predicate{query.NewRange(1, 64, 127), query.NewIn(2, 0, 1)}},
	}
	for _, q := range qs {
		truth := query.Evaluate(q, cols)
		got, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.08 {
			t.Errorf("query %v: got %v, truth %v", q, got, truth)
		}
	}
}

func TestNoNumericalAttributesFallsBack(t *testing.T) {
	s := dataset.MixedSchema(0, 1, 3, 6)
	ds := dataset.NewUniform().Generate(s, 10000, 19)
	agg, err := Collect(ds, Options{Core: core.Options{Strategy: core.OUG, Epsilon: 1, Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Phase1N() != 0 || agg.Phase2N() != 10000 {
		t.Errorf("all-categorical schema should skip phase 1: %d/%d", agg.Phase1N(), agg.Phase2N())
	}
	q := query.Query{Preds: []query.Predicate{query.NewIn(0, 1, 2), query.NewIn(1, 0)}}
	if _, err := engineFor(t, agg).Answer(q); err != nil {
		t.Fatal(err)
	}
}

func TestTooSmallPopulation(t *testing.T) {
	ds := dataset.NewUniform().Generate(spikySchema(), 3, 29)
	if _, err := Collect(ds, Options{Core: core.Options{Strategy: core.OHG, Epsilon: 1}}); err == nil {
		t.Error("tiny population accepted")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	ds := dataset.NewLoanSim().Generate(spikySchema(), 20000, 31)
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 30, 90), query.NewRange(1, 20, 100)}}
	run := func() float64 {
		agg, err := Collect(ds, Options{Core: core.Options{Strategy: core.OHG, Epsilon: 1, Seed: 37}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := engineFor(t, agg).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed answers differ: %v vs %v", a, b)
	}
}
