package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"felip/internal/adaptive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/estimate"
	"felip/internal/metrics"
	"felip/internal/query"
)

func testSchema() *domain.Schema {
	return dataset.MixedSchema(2, 32, 2, 4)
}

func collectFor(t testing.TB, strat core.Strategy, n int, seed uint64) *core.Aggregator {
	t.Helper()
	ds := dataset.NewNormal().Generate(testSchema(), n, seed)
	agg, err := core.Collect(ds, core.Options{Strategy: strat, Epsilon: 2.0, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func engineFor(t testing.TB, agg *core.Aggregator) *Engine {
	t.Helper()
	e, err := NewEngine(agg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// workload generates a mixed-λ batch of random valid queries.
func workload(t *testing.T, s *domain.Schema, count int, seed uint64) []query.Query {
	t.Helper()
	gen, err := query.NewGenerator(s, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	var qs []query.Query
	for len(qs) < count {
		for _, lambda := range []int{1, 2, 3, 4} {
			q, err := gen.Generate(lambda)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	return qs[:count]
}

// The engine must reproduce the mask-scan reference (maskscan_test.go). λ ≤ 2
// answers are compared at floating-point noise level (the summed-area tables
// add the same masses in a different order, so the last ULPs may differ);
// λ ≥ 3 goes through IPF whose iteration count may shift under such
// perturbations, so those agree to within the convergence threshold (1/n).
// Besides plain OUG and OHG rounds, the inputs include adaptive rounds, whose
// numerical axes are equi-mass and so have cells of varying width.
func TestEngineMatchesAggregator(t *testing.T) {
	type input struct {
		name string
		agg  *core.Aggregator
	}
	var inputs []input
	for _, strat := range []core.Strategy{core.OUG, core.OHG} {
		ds := dataset.NewNormal().Generate(testSchema(), 20000, 101)
		ad, err := adaptive.Collect(ds, adaptive.Options{Core: core.Options{Strategy: strat, Epsilon: 2.0, Seed: 102}})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs,
			input{strat.String(), collectFor(t, strat, 20000, 101)},
			input{strat.String() + "-eqmass", ad.Inner()})
	}
	for _, in := range inputs {
		strat, agg := in.name, in.agg
		eng := engineFor(t, agg)
		ref := newMaskScan(agg)
		ipfTol := 10 / float64(agg.N())
		for i, q := range workload(t, agg.Schema(), 60, 202) {
			want, errW := ref.Answer(q)
			got, errG := eng.Answer(q)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%v query %d %v: reference err %v, engine err %v", strat, i, q, errW, errG)
			}
			if errW != nil {
				continue
			}
			tol := 1e-9
			if q.Lambda() >= 3 {
				tol = ipfTol
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%v query %d %v (λ=%d): engine %v vs reference %v (Δ=%g)",
					strat, i, q, q.Lambda(), got, want, math.Abs(got-want))
			}
			ee1, err1 := agg.ExpectedError(q)
			ee2, err2 := eng.ExpectedError(q)
			if err1 != nil || err2 != nil || ee1 != ee2 {
				t.Errorf("%v query %d: ExpectedError mismatch: (%v,%v) vs (%v,%v)", strat, i, ee1, err1, ee2, err2)
			}
		}
	}
}

// Restored snapshots must serve identically to the live round they came
// from: the engine reads only post-processed state that snapshots preserve.
func TestEngineFromRestoredSnapshot(t *testing.T) {
	agg := collectFor(t, core.OHG, 10000, 303)
	restored, err := core.Restore(agg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, restored)
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}
	ref := newMaskScan(agg)
	for _, q := range workload(t, agg.Schema(), 12, 404) {
		want, errW := ref.Answer(q)
		got, errG := eng.Answer(q)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("query %v: err mismatch %v vs %v", q, errW, errG)
		}
		if errW == nil && math.Abs(got-want) > 10/float64(agg.N()) {
			t.Errorf("query %v: restored engine %v vs live reference %v", q, got, want)
		}
	}
}

// A matrix cache under one mutex held across the fit would block every query
// on every other pair until one pair's fit finished. The engine must let
// other pairs make progress while one pair's fit is held open.
func TestEngineConcurrentPairsProgress(t *testing.T) {
	agg := collectFor(t, core.OHG, 8000, 505)
	eng := engineFor(t, agg)

	held := [2]int{0, 1}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	testHookMatrixFit = func(pair [2]int) {
		if pair == held {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	defer func() { testHookMatrixFit = nil }()

	// Query A needs pair (0,1): its build parks in the hook.
	qA := query.Query{Preds: []query.Predicate{query.NewRange(0, 4, 19), query.NewRange(1, 8, 23)}}
	aDone := make(chan error, 1)
	go func() {
		_, err := eng.Answer(qA)
		aDone <- err
	}()
	<-entered

	// Query B needs pair (0,2) — also a lazy matrix pair, never built yet. It
	// must complete while A's fit is still held open.
	qB := query.Query{Preds: []query.Predicate{query.NewRange(0, 4, 19), query.NewIn(2, 0)}}
	bDone := make(chan error, 1)
	go func() {
		_, err := eng.Answer(qB)
		bDone <- err
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("query B failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query on pair (0,2) blocked behind pair (0,1)'s matrix fit")
	}
	select {
	case err := <-aDone:
		t.Fatalf("query A finished while its fit was held (err=%v)", err)
	default:
	}

	close(release)
	if err := <-aDone; err != nil {
		t.Fatalf("query A failed after release: %v", err)
	}
}

// A pair's matrix is fitted exactly once: concurrent first queries on the
// same pair share one singleflight build, later queries are cache hits.
func TestEngineMatrixSingleflight(t *testing.T) {
	agg := collectFor(t, core.OHG, 8000, 606)
	eng := engineFor(t, agg)

	var mu sync.Mutex
	fits := map[[2]int]int{}
	testHookMatrixFit = func(pair [2]int) {
		mu.Lock()
		fits[pair]++
		mu.Unlock()
	}
	defer func() { testHookMatrixFit = nil }()

	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 4, 19), query.NewRange(1, 8, 23)}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Answer(q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := fits[[2]int{0, 1}]; got != 1 {
		t.Errorf("pair (0,1) fitted %d times, want 1", got)
	}
	// Warmup after the fact must not refit pair (0,1), and must build the rest.
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}
	if got := fits[[2]int{0, 1}]; got != 1 {
		t.Errorf("Warmup refitted pair (0,1): %d fits", got)
	}
	mu.Lock()
	totalFits := 0
	for _, n := range fits {
		totalFits += n
	}
	mu.Unlock()
	// OHG on 2 numerical + 2 categorical attrs: 5 pairs touch a numerical
	// attribute and need matrices; (2,3) is static.
	if totalFits != 5 {
		t.Errorf("total fits = %d, want 5 (all lazy pairs exactly once)", totalFits)
	}
}

// Warmup records misses and one serve.warmup observation per call,
// subsequent queries record hits.
func TestEngineCacheCounters(t *testing.T) {
	agg := collectFor(t, core.OHG, 6000, 707)
	eng := engineFor(t, agg)
	hits0 := metrics.GetCounter("serve.matrix_cache.hit").Value()
	misses0 := metrics.GetCounter("serve.matrix_cache.miss").Value()
	warmups0 := metrics.GetTimer("serve.warmup").Count()
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}
	if d := metrics.GetCounter("serve.matrix_cache.miss").Value() - misses0; d != 5 {
		t.Errorf("Warmup misses = %d, want 5", d)
	}
	if d := metrics.GetTimer("serve.warmup").Count() - warmups0; d != 1 {
		t.Errorf("serve.warmup observed %d times after one Warmup, want 1", d)
	}
	// A second, idempotent Warmup fits nothing but is still one observation.
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}
	if d := metrics.GetTimer("serve.warmup").Count() - warmups0; d != 2 {
		t.Errorf("serve.warmup observed %d times after two Warmups, want 2", d)
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 4, 19), query.NewRange(1, 8, 23)}}
	if _, err := eng.Answer(q); err != nil {
		t.Fatal(err)
	}
	if d := metrics.GetCounter("serve.matrix_cache.hit").Value() - hits0; d < 1 {
		t.Errorf("post-warmup query recorded no cache hit")
	}
}

func TestEngineAnswerBatch(t *testing.T) {
	agg := collectFor(t, core.OHG, 10000, 808)
	eng := engineFor(t, agg)
	qs := workload(t, agg.Schema(), 16, 909)
	// Plant an invalid query mid-batch: its slot fails, everything else works.
	bad := query.Query{Preds: []query.Predicate{query.NewRange(2, 0, 1)}} // BETWEEN on categorical
	qs[7] = bad
	results := eng.AnswerBatch(qs)
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, r := range results {
		if i == 7 {
			if r.Err == nil {
				t.Error("invalid query in batch did not error")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("query %d failed: %v", i, r.Err)
			continue
		}
		want, err := eng.Answer(qs[i])
		if err != nil || r.Estimate != want {
			t.Errorf("query %d: batch %v vs direct %v (err %v)", i, r.Estimate, want, err)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	agg := collectFor(t, core.OUG, 4000, 111)
	eng := engineFor(t, agg)
	if _, err := eng.Answer(query.Query{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := eng.Answer(query.Query{Preds: []query.Predicate{query.NewRange(9, 0, 1)}}); err == nil {
		t.Error("out-of-schema attribute accepted")
	}
	if _, err := NewEngine(nil); err == nil {
		t.Error("NewEngine(nil) accepted")
	}
}

// Race-detector workout: mixed single queries, batches, and a late Warmup all
// running against a freshly built engine at once.
func TestEngineConcurrentMixedUse(t *testing.T) {
	agg := collectFor(t, core.OHG, 8000, 222)
	eng := engineFor(t, agg)
	qs := workload(t, agg.Schema(), 24, 333)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := eng.Warmup(); err != nil {
			t.Error(err)
		}
	}()
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(qs); i++ {
				q := qs[(i+w)%len(qs)]
				if _, err := eng.Answer(q); err != nil {
					t.Errorf("worker %d query %v: %v", w, q, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range eng.AnswerBatch(qs) {
			if r.Err != nil {
				t.Error(r.Err)
			}
		}
	}()
	wg.Wait()
}

// denseFit is the entry-wise Algorithm-3 sweep loop that estimate.Matrix.Fit
// replaced with its atom-grid form (the same reference estimate's own tests
// use): every constraint rescales each entry of its rectangle.
func denseFit(m *estimate.Matrix, cons []estimate.Constraint, threshold float64, maxIter int) {
	for iter := 0; iter < max(maxIter, 1); iter++ {
		var change float64
		for _, c := range cons {
			s := m.RectSum(c.R)
			if s == 0 {
				continue
			}
			factor := math.Max(c.Target, 0) / s
			for x := c.R.XLo; x < c.R.XHi; x++ {
				row := m.Vals[x*m.Dy : (x+1)*m.Dy]
				for y := c.R.YLo; y < c.R.YHi; y++ {
					old := row[y]
					row[y] = old * factor
					change += math.Abs(row[y] - old)
				}
			}
		}
		if change < threshold {
			return
		}
	}
}

// On the pipeline benchmark's plan (six 256-value numerical and two
// 16-value categorical attributes, planned for 5M users, 100k reports
// collected) every response matrix the engine fits must match the
// entry-wise reference within 1e-12 relative, and the engine's answers must
// match answers served from the reference matrices.
func TestEngineMatchesDenseFitOnBenchmarkPlan(t *testing.T) {
	schema := dataset.MixedSchema(6, 256, 2, 16)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 1201}
	col, err := core.NewCollector(schema, 5_000_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.NewNormal().Generate(schema, 100_000, 1202)
	dev, err := core.NewClient(col.Specs(), opts.Epsilon, 1203)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < ds.N(); row++ {
		rep, err := dev.Perturb(col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
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
	eng := engineFor(t, agg)
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}

	// ref serves the same round from the dense reference matrices.
	ref := engineFor(t, agg)
	fitted := 0
	for key, plan := range eng.pairs {
		if !plan.lazy {
			continue
		}
		fitted++
		di, dj := schema.Attr(key[0]).Size, schema.Attr(key[1]).Size
		cons, err := agg.PairConstraints(key[0], key[1])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := estimate.NewMatrix(di, dj)
		got.Fit(cons, eng.threshold, eng.matrixMaxIter)
		want, _ := estimate.NewMatrix(di, dj)
		denseFit(want, cons, eng.threshold, eng.matrixMaxIter)
		for k, w := range want.Vals {
			if d := math.Abs(got.Vals[k] - w); d > 1e-18 && d > 1e-12*math.Abs(w) {
				t.Fatalf("pair %v entry %d: atom fit %v, dense reference %v", key, k, got.Vals[k], w)
			}
		}
		sat, err := want.SummedArea()
		if err != nil {
			t.Fatal(err)
		}
		slot := &matrixSlot{ready: make(chan struct{}), sat: sat}
		close(slot.ready)
		ref.matrices[key] = slot
	}
	if fitted != 27 {
		t.Fatalf("benchmark plan fitted %d response matrices, want 27", fitted)
	}
	for i, q := range workload(t, schema, 200, 1204) {
		got, errG := eng.Answer(q)
		want, errW := ref.Answer(q)
		if errG != nil || errW != nil {
			t.Fatalf("query %d %v: engine err %v, reference err %v", i, q, errG, errW)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("query %d %v (λ=%d): engine %v vs dense reference %v (Δ=%g)",
				i, q, q.Lambda(), got, want, math.Abs(got-want))
		}
	}
}
