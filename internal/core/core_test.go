package core

import (
	"math"
	"strings"
	"testing"

	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/query"
)

func mixedSchema() *domain.Schema {
	return dataset.MixedSchema(2, 32, 2, 4)
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{Strategy: OHG, Epsilon: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Selectivity != 0.5 || o.Alpha1 != 0.7 || o.Alpha2 != 0.03 ||
		o.PostProcessRounds != 3 || o.MatrixMaxIter != 50 || o.LambdaMaxIter != 100 || o.Seed == 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := (Options{Strategy: OUG}).withDefaults(); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := (Options{Strategy: OUG, Epsilon: -1}).withDefaults(); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := (Options{Strategy: Strategy(9), Epsilon: 1}).withDefaults(); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := (Options{Strategy: OUG, Epsilon: 1, Selectivity: 2}).withDefaults(); err == nil {
		t.Error("selectivity > 1 accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if OUG.String() != "OUG" || OHG.String() != "OHG" {
		t.Error("strategy names wrong")
	}
	if !strings.Contains(Strategy(9).String(), "9") {
		t.Error("unknown strategy string")
	}
}

func TestBuildPlanGroupCounts(t *testing.T) {
	s := mixedSchema() // k=4: 2 numerical, 2 categorical
	specs, err := BuildPlan(s, 100000, Options{Strategy: OUG, Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 { // C(4,2)
		t.Errorf("OUG specs = %d, want 6", len(specs))
	}
	for _, sp := range specs {
		if sp.Is1D() {
			t.Errorf("OUG produced 1-D grid %v", sp)
		}
	}

	specs, err = BuildPlan(s, 100000, Options{Strategy: OHG, Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 { // k_n + C(4,2) = 2 + 6
		t.Errorf("OHG specs = %d, want 8", len(specs))
	}
	oneD := 0
	for _, sp := range specs {
		if sp.Is1D() {
			oneD++
			if !s.Attr(sp.AttrX).IsNumerical() {
				t.Errorf("1-D grid on categorical attribute: %v", sp)
			}
		}
	}
	if oneD != 2 {
		t.Errorf("OHG 1-D grids = %d, want 2", oneD)
	}
}

func TestBuildPlanCategoricalGridsFullDomain(t *testing.T) {
	s := mixedSchema()
	specs, err := BuildPlan(s, 100000, Options{Strategy: OHG, Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.Is1D() {
			continue
		}
		if s.Attr(sp.AttrX).IsCategorical() && sp.AxisX.Cells() != s.Attr(sp.AttrX).Size {
			t.Errorf("categorical axis binned: %v", sp)
		}
		if s.Attr(sp.AttrY).IsCategorical() && sp.AxisY.Cells() != s.Attr(sp.AttrY).Size {
			t.Errorf("categorical axis binned: %v", sp)
		}
	}
}

func TestBuildPlanErrors(t *testing.T) {
	one := domain.MustSchema(domain.Attribute{Name: "a", Kind: domain.Numerical, Size: 8})
	if _, err := BuildPlan(one, 100, Options{Strategy: OUG, Epsilon: 1}); err == nil {
		t.Error("single-attribute schema accepted")
	}
	if _, err := BuildPlan(mixedSchema(), 0, Options{Strategy: OUG, Epsilon: 1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BuildPlan(mixedSchema(), 100, Options{Strategy: OUG}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestBuildPlanForcedProtocol(t *testing.T) {
	olh := fo.OLH
	specs, err := BuildPlan(mixedSchema(), 100000, Options{Strategy: OHG, Epsilon: 1, Seed: 1, ForceProtocol: &olh})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.Proto != fo.OLH {
			t.Errorf("forced OLH but got %v for %v", sp.Proto, sp)
		}
	}
}

func TestGridSpecHelpers(t *testing.T) {
	specs, err := BuildPlan(mixedSchema(), 100000, Options{Strategy: OHG, Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.L() < 1 {
			t.Errorf("spec %v has L=%d", sp, sp.L())
		}
		str := sp.String()
		if !strings.Contains(str, "G(") {
			t.Errorf("String = %q", str)
		}
		record := func(attr int) int { return 0 }
		if cell := sp.CellOf(record); cell != 0 {
			t.Errorf("zero record should project to cell 0, got %d", cell)
		}
	}
}

func collectFor(t *testing.T, strat Strategy, n int, seed uint64) (*Aggregator, *dataset.Dataset) {
	t.Helper()
	s := mixedSchema()
	ds := dataset.NewNormal().Generate(s, n, seed)
	agg, err := Collect(ds, Options{Strategy: strat, Epsilon: 2.0, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return agg, ds
}

func TestCollectAccessors(t *testing.T) {
	agg, _ := collectFor(t, OHG, 20000, 3)
	if agg.N() != 20000 {
		t.Errorf("N = %d", agg.N())
	}
	if agg.Schema().Len() != 4 {
		t.Error("Schema wrong")
	}
	if len(agg.Specs()) != 8 {
		t.Errorf("Specs = %d", len(agg.Specs()))
	}
	if _, ok := agg.Grid1D(0); !ok {
		t.Error("missing 1-D grid for numerical attr 0")
	}
	if _, ok := agg.Grid1D(2); ok {
		t.Error("unexpected 1-D grid for categorical attr")
	}
	if _, ok := agg.Grid2D(0, 1); !ok {
		t.Error("missing 2-D grid (0,1)")
	}
	if _, ok := agg.Grid2D(1, 0); ok {
		t.Error("reversed pair should not resolve")
	}
}

func TestCollectGridsAreDistributions(t *testing.T) {
	for _, strat := range []Strategy{OUG, OHG} {
		agg, _ := collectFor(t, strat, 20000, 7)
		for _, sp := range agg.Specs() {
			var freq []float64
			if sp.Is1D() {
				g, _ := agg.Grid1D(sp.AttrX)
				freq = g.Freq
			} else {
				g, _ := agg.Grid2D(sp.AttrX, sp.AttrY)
				freq = g.Freq
			}
			var sum float64
			for i, f := range freq {
				if f < -1e-9 {
					t.Errorf("%v strategy %v: negative freq[%d]=%v", strat, sp, i, f)
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%v strategy %v: freq sums to %v", strat, sp, sum)
			}
		}
	}
}

func TestCollectDeterministicWithSeed(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewUniform().Generate(s, 10000, 5)
	a1, err := Collect(ds, Options{Strategy: OHG, Epsilon: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Collect(ds, Options{Strategy: OHG, Epsilon: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Every grid bit must agree, so every answer served from them does too.
	h1, _ := hashAgg(a1)
	h2, _ := hashAgg(a2)
	if h1 != h2 {
		t.Errorf("same seed produced grid hashes %#x vs %#x", h1, h2)
	}
}

func TestExpectedError(t *testing.T) {
	agg, ds := collectFor(t, OHG, 30000, 41)
	_ = ds
	q1 := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23)}}
	e1, err := agg.ExpectedError(q1)
	if err != nil {
		t.Fatal(err)
	}
	if !(e1 > 0 && e1 < 1) {
		t.Errorf("1-D expected error = %v", e1)
	}
	q2 := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewIn(2, 0, 1)}}
	e2, err := agg.ExpectedError(q2)
	if err != nil {
		t.Fatal(err)
	}
	q4 := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 8, 23), query.NewRange(1, 8, 23),
		query.NewIn(2, 0, 1), query.NewIn(3, 0, 1),
	}}
	e4, err := agg.ExpectedError(q4)
	if err != nil {
		t.Fatal(err)
	}
	// More pairs → larger analytic error bound.
	if !(e4 > e2) {
		t.Errorf("4-D expected error %v not above 2-D %v", e4, e2)
	}
	// Larger population must shrink the a-priori error.
	big, _ := collectFor(t, OHG, 120000, 41)
	e2big, err := big.ExpectedError(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !(e2big < e2) {
		t.Errorf("expected error did not shrink with n: %v vs %v", e2big, e2)
	}
	if _, err := agg.ExpectedError(query.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestExpectedError1DOnOUG(t *testing.T) {
	// OUG has no 1-D grids; the 1-D expected error must fall back to a 2-D
	// grid containing the attribute.
	agg, _ := collectFor(t, OUG, 20000, 43)
	q := query.Query{Preds: []query.Predicate{query.NewRange(1, 0, 15)}}
	e, err := agg.ExpectedError(q)
	if err != nil {
		t.Fatal(err)
	}
	if !(e > 0) {
		t.Errorf("expected error = %v", e)
	}
}

// SelectivityByAttr lets the aggregator size each attribute's grids with its
// own workload prior.
func TestSelectivityByAttr(t *testing.T) {
	s := mixedSchema()
	specsDefault, err := BuildPlan(s, 100000, Options{Strategy: OHG, Epsilon: 1, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	specsPerAttr, err := BuildPlan(s, 100000, Options{
		Strategy: OHG, Epsilon: 1, Seed: 75,
		SelectivityByAttr: map[int]float64{0: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Narrower prior on attr 0 → at least as fine a 1-D grid for it.
	var def, per int
	for i, sp := range specsDefault {
		if sp.Is1D() && sp.AttrX == 0 {
			def = sp.L()
			per = specsPerAttr[i].L()
		}
	}
	if per < def {
		t.Errorf("per-attribute narrow prior coarsened the grid: %d -> %d", def, per)
	}
}
