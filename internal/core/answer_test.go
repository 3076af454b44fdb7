package core_test

import (
	"math"
	"os"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/query"
	"felip/internal/serve"
)

// The tests in this file check the answers a collected round serves. They
// read through serve.Engine, the one query path, which imports core; so they
// live in the external test package.

func mixedSchema() *domain.Schema {
	return dataset.MixedSchema(2, 32, 2, 4)
}

func collectFor(t *testing.T, strat core.Strategy, n int, seed uint64) (*core.Aggregator, *dataset.Dataset) {
	t.Helper()
	ds := dataset.NewNormal().Generate(mixedSchema(), n, seed)
	agg, err := core.Collect(ds, core.Options{Strategy: strat, Epsilon: 2.0, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return agg, ds
}

func engineFor(t *testing.T, agg *core.Aggregator) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(agg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAnswer1D(t *testing.T) {
	agg, ds := collectFor(t, core.OHG, 60000, 11)
	eng := engineFor(t, agg)
	for _, q := range []query.Query{
		{Preds: []query.Predicate{query.NewRange(0, 8, 23)}},
		{Preds: []query.Predicate{query.NewIn(2, 0, 1)}},
	} {
		truth := query.Evaluate(q, [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)})
		got, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.05 {
			t.Errorf("query %v: got %v, truth %v", q, got, truth)
		}
	}
}

func TestAnswer2DAccuracy(t *testing.T) {
	for _, strat := range []core.Strategy{core.OUG, core.OHG} {
		agg, ds := collectFor(t, strat, 60000, 13)
		eng := engineFor(t, agg)
		cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)}
		qs := []query.Query{
			{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewRange(1, 8, 23)}},
			{Preds: []query.Predicate{query.NewRange(0, 0, 15), query.NewIn(2, 0, 1)}},
			{Preds: []query.Predicate{query.NewIn(2, 0), query.NewIn(3, 1, 2)}},
		}
		for _, q := range qs {
			truth := query.Evaluate(q, cols)
			got, err := eng.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-truth) > 0.08 {
				t.Errorf("%v query %v: got %v, truth %v", strat, q, got, truth)
			}
		}
	}
}

func TestAnswer4DAccuracy(t *testing.T) {
	agg, ds := collectFor(t, core.OHG, 80000, 17)
	eng := engineFor(t, agg)
	cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)}
	q := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 8, 23),
		query.NewRange(1, 4, 27),
		query.NewIn(2, 0, 1),
		query.NewIn(3, 0, 1, 2),
	}}
	truth := query.Evaluate(q, cols)
	got, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.1 {
		t.Errorf("4-D query: got %v, truth %v", got, truth)
	}
}

func TestAnswerValidation(t *testing.T) {
	agg, _ := collectFor(t, core.OUG, 5000, 19)
	eng := engineFor(t, agg)
	if _, err := eng.Answer(query.Query{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := eng.Answer(query.Query{Preds: []query.Predicate{query.NewRange(2, 0, 1)}}); err == nil {
		t.Error("BETWEEN on categorical accepted")
	}
}

// Theorem 5.1 empirically: dividing users must beat dividing the budget.
func TestDivideUsersBeatsDivideBudget(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewNormal().Generate(s, 40000, 23)
	cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)}
	gen, err := query.NewGenerator(s, 0.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateMany(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	maeOf := func(divideBudget bool) float64 {
		agg, err := core.Collect(ds, core.Options{Strategy: core.OUG, Epsilon: 1, Seed: 99, DivideBudget: divideBudget})
		if err != nil {
			t.Fatal(err)
		}
		eng := engineFor(t, agg)
		var total float64
		for _, q := range qs {
			got, err := eng.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			total += math.Abs(got - query.Evaluate(q, cols))
		}
		return total / float64(len(qs))
	}
	users := maeOf(false)
	budget := maeOf(true)
	if users >= budget {
		t.Errorf("dividing users MAE %v not better than dividing budget MAE %v", users, budget)
	}
}

// FELIP explicitly supports attributes with different domain sizes (§5.8),
// unlike TDG/HDG. Exercise planning and answering over a strongly
// heterogeneous schema.
func TestHeterogeneousDomains(t *testing.T) {
	s := domain.MustSchema(
		domain.Attribute{Name: "tiny", Kind: domain.Numerical, Size: 9},
		domain.Attribute{Name: "huge", Kind: domain.Numerical, Size: 700},
		domain.Attribute{Name: "bin", Kind: domain.Categorical, Size: 2},
		domain.Attribute{Name: "wide", Kind: domain.Categorical, Size: 12},
	)
	ds := dataset.NewIPUMSSim().Generate(s, 50000, 71)
	for _, strat := range []core.Strategy{core.OUG, core.OHG} {
		agg, err := core.Collect(ds, core.Options{Strategy: strat, Epsilon: 2, Seed: 73})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range agg.Specs() {
			// Categorical axes stay at full domain even when mixed with the
			// 700-value numerical attribute.
			if !sp.Is1D() {
				if s.Attr(sp.AttrX).IsCategorical() && sp.AxisX.Cells() != s.Attr(sp.AttrX).Size {
					t.Errorf("%v: categorical x axis binned: %v", strat, sp)
				}
				if s.Attr(sp.AttrY).IsCategorical() && sp.AxisY.Cells() != s.Attr(sp.AttrY).Size {
					t.Errorf("%v: categorical y axis binned: %v", strat, sp)
				}
			}
		}
		eng := engineFor(t, agg)
		cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)}
		qs := []query.Query{
			{Preds: []query.Predicate{query.NewRange(0, 2, 6), query.NewRange(1, 100, 450)}},
			{Preds: []query.Predicate{query.NewRange(1, 0, 349), query.NewIn(3, 0, 1, 2)}},
			{Preds: []query.Predicate{query.NewPoint(2, 0), query.NewIn(3, 0, 5)}},
		}
		for _, q := range qs {
			truth := query.Evaluate(q, cols)
			got, err := eng.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-truth) > 0.08 {
				t.Errorf("%v query %v: got %v, truth %v", strat, q, got, truth)
			}
		}
	}
}

// With huge ε the pipeline must reproduce near-exact answers: the remaining
// error is only binning bias.
func TestHighEpsilonNearExact(t *testing.T) {
	s := dataset.MixedSchema(2, 16, 1, 4)
	ds := dataset.NewUniform().Generate(s, 50000, 29)
	agg, err := core.Collect(ds, core.Options{Strategy: core.OHG, Epsilon: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 0, 7), query.NewIn(2, 0, 1)}}
	truth := query.Evaluate(q, [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2)})
	got, err := engineFor(t, agg).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.03 {
		t.Errorf("eps=5: got %v, truth %v", got, truth)
	}
}

// End-to-end through the report-level API: a population of simulated devices
// each fetches the plan, perturbs locally, submits; the finalized aggregator
// must answer accurately. This is the deployment path (client/server split),
// distinct from the simulated Collect path.
func TestIncrementalEndToEnd(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewNormal().Generate(s, 60000, 5)
	col, err := core.NewCollector(s, ds.N(), core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(col.Specs(), col.Epsilon(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < ds.N(); row++ {
		group := col.AssignGroup()
		rep, err := cl.Perturb(group, func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if col.N() != ds.N() {
		t.Fatalf("collector N = %d", col.N())
	}
	agg, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Add(core.Report{Group: 0, Proto: col.Specs()[0].Proto}); err == nil {
		t.Error("Add after Finalize accepted")
	}

	eng := engineFor(t, agg)
	cols := [][]uint16{ds.Col(0), ds.Col(1), ds.Col(2), ds.Col(3)}
	for _, q := range []query.Query{
		{Preds: []query.Predicate{query.NewRange(0, 8, 23)}},
		{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewIn(2, 0, 1)}},
	} {
		truth := query.Evaluate(q, cols)
		got, err := eng.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.06 {
			t.Errorf("query %v: got %v, truth %v", q, got, truth)
		}
	}
}

// Failure injection: a fraction of devices send garbage (but wire-valid)
// reports. LDP aggregation has no way to detect them — the estimates shift —
// but the pipeline must stay numerically sane: finite, non-negative,
// normalized grids and bounded query answers.
func TestCollectorSurvivesGarbageReports(t *testing.T) {
	s := mixedSchema()
	ds := dataset.NewNormal().Generate(s, 20000, 61)
	col, err := core.NewCollector(s, ds.N(), core.Options{Strategy: core.OHG, Epsilon: 1, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	specs := col.Specs()
	cl, err := core.NewClient(specs, col.Epsilon(), 65)
	if err != nil {
		t.Fatal(err)
	}
	rng := fo.NewRand(67)
	for row := 0; row < ds.N(); row++ {
		group := col.AssignGroup()
		var rep core.Report
		if row%10 == 0 {
			// Adversarial device: protocol-conformant but arbitrary values.
			sp := specs[group]
			rep = core.Report{Group: group, Proto: sp.Proto}
			switch sp.Proto {
			case fo.GRR:
				rep.Value = rng.IntN(sp.L())
			case fo.OLH:
				rep.Value = rng.IntN(fo.OptimalG(col.Epsilon()))
				rep.Seed = rng.Uint64()
			}
		} else {
			rep, err = cl.Perturb(group, func(attr int) int { return ds.Value(row, attr) })
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
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
		for _, f := range freq {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < -1e-9 {
				t.Fatalf("grid %v corrupted: %v", sp, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("grid %v sums to %v", sp, sum)
		}
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewIn(2, 0, 1)}}
	got, err := engineFor(t, agg).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got < -1e-9 || got > 1+1e-9 || math.IsNaN(got) {
		t.Fatalf("answer %v out of range", got)
	}
}

// TestLoadGoldenSnapshot pins the on-disk snapshot format: the committed
// fixture (written by `felipquery -save` with the v1 format) must keep
// loading and keep producing the same answer bit-for-bit. If this test
// breaks, the format changed — bump snapshotVersion and migrate instead.
func TestLoadGoldenSnapshot(t *testing.T) {
	f, err := os.Open("../../testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	agg, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if agg.N() != 8000 || agg.Schema().Len() != 3 {
		t.Fatalf("fixture metadata: n=%d k=%d", agg.N(), agg.Schema().Len())
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23)}}
	got, err := engineFor(t, agg).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0.714971174733
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("golden answer drifted: got %.12f, want %.12f", got, want)
	}
}

// TestAnswerZeroPopulationConverges is the regression test for the unguarded
// threshold := 1/n: with n = 0 the threshold was +Inf, so IPF exited after a
// single sweep. The guard must fall back to a finite default and Answer must
// return a finite estimate.
func TestAnswerZeroPopulationConverges(t *testing.T) {
	s := mixedSchema()
	opts := core.Options{Strategy: core.OUG, Epsilon: 1, Seed: 29}
	agg, err := core.UniformAggregator(s, 10000, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.IPFThreshold(); got != core.DefaultIPFThreshold {
		t.Errorf("IPFThreshold with n=0 = %v, want %v", got, core.DefaultIPFThreshold)
	}
	q, err := query.Parse("num0=2..9 and cat0=0,1 and num1=1..6", s)
	if err != nil {
		t.Fatal(err)
	}
	est, err := engineFor(t, agg).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est) || math.IsInf(est, 0) {
		t.Fatalf("Answer with n=0 not finite: %v", est)
	}
	// With n > 0 the threshold is the paper's 1/n.
	agg, err = core.UniformAggregator(s, 10000, 4000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.IPFThreshold(); got != 1/4000.0 {
		t.Errorf("IPFThreshold with n=4000 = %v, want %v", got, 1/4000.0)
	}
}
