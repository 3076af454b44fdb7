// Package serve is FELIP's one query path: an immutable, concurrency-first
// engine built once from a finalized collection round (a *core.Aggregator)
// and then hammered by query traffic. HTTP, the archive's historical plane,
// the cluster coordinator, the command-line tools and the examples all
// answer through it.
//
// The split mirrors the paper's own structure — collection and estimation
// (§5.1–§5.4) happen once per round, while query answering over response
// matrices and IPF (§5.5–§5.6) is pure post-processing of the round's
// DP-protected output — and the architecture consistency-style LDP systems
// converge on: finalize into a read-only snapshot, then serve it lock-free.
//
// What the engine owns:
//
//   - an attr → covering-grid index and per-value marginals with prefix sums,
//     so a 1-D query costs O(#spans) lookups;
//   - summed-area (2-D prefix-sum) tables over every pair's per-value
//     frequency surface, so each sign-combination answer of an associated
//     2-D query costs O(1) corner lookups per pair of spans;
//   - per-pair singleflight for response-matrix construction: a cache miss
//     fits one pair's matrix (Algorithm 3) while hits — and misses on other
//     pairs — proceed concurrently;
//   - a parallel Warmup that precomputes every response matrix up front, and
//     a batch answer API that fans a query workload across GOMAXPROCS.
//
// Engines are immutable once built: round k's engine keeps serving while
// round k+1 collects, and the HTTP layer swaps the new round's engine in
// atomically (see internal/httpapi).
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"felip/internal/core"
	"felip/internal/domain"
	"felip/internal/estimate"
	"felip/internal/grid"
	"felip/internal/metrics"
	"felip/internal/query"
)

// Instruments (surfaced through /v1/status via metrics.Snapshot).
var (
	queryTimer  = metrics.GetTimer("serve.query")
	warmupTimer = metrics.GetTimer("serve.warmup")
	cacheHits   = metrics.GetCounter("serve.matrix_cache.hit")
	cacheMisses = metrics.GetCounter("serve.matrix_cache.miss")
)

// testHookMatrixFit, when non-nil, runs during a cache-miss matrix build for
// the given pair — after the build slot is claimed (so concurrent queries on
// other pairs proceed) and before the iterative fit. Tests use it to hold one
// pair's build open deterministically while probing that other pairs make
// progress.
var testHookMatrixFit func(pair [2]int)

// marginal1D answers arbitrary span selections over one attribute's
// per-value marginal in O(#spans) via prefix sums.
type marginal1D struct {
	// prefix[v] = Σ marginal[0:v]; length d+1.
	prefix []float64
}

func newMarginal1D(vals []float64) *marginal1D {
	prefix := make([]float64, len(vals)+1)
	for v, x := range vals {
		prefix[v+1] = prefix[v] + x
	}
	return &marginal1D{prefix: prefix}
}

func (m *marginal1D) spanSum(spans []estimate.Span) float64 {
	var total float64
	for _, s := range spans {
		total += m.prefix[s.Hi] - m.prefix[s.Lo]
	}
	return total
}

// pairPlan is the static per-pair answering plan fixed at engine build.
type pairPlan struct {
	// lazy marks OHG pairs with at least one related 1-D grid: their
	// per-value surface is the response matrix (Algorithm 3), fitted on first
	// use (or Warmup) under per-pair singleflight.
	lazy bool
	// sat is the summed-area table over the pair's per-value frequency
	// surface; for non-lazy pairs it is the uniform expansion of the 2-D
	// grid, built eagerly here.
	sat *estimate.SummedArea
}

// matrixSlot is one pair's singleflight build: the first query to miss claims
// the slot and fits the matrix outside any shared lock; everyone else waits
// on ready.
type matrixSlot struct {
	ready chan struct{}
	sat   *estimate.SummedArea
	err   error
}

// Engine is the immutable query-serving side of one finalized FELIP round.
// All methods are safe for arbitrary concurrent use; none of them block on a
// shared lock beyond the per-pair singleflight of the first matrix fit.
type Engine struct {
	agg           *core.Aggregator
	schema        *domain.Schema
	n             int
	strategy      core.Strategy
	threshold     float64
	matrixMaxIter int
	lambdaMaxIter int

	// marginals holds each answerable attribute's prefix-summed per-value
	// marginal: its own 1-D grid when one was collected, otherwise the
	// marginal of its covering 2-D grid (core.Aggregator.CoveringGrid2D, the
	// first in spec order).
	marginals map[int]*marginal1D
	pairs     map[[2]int]*pairPlan

	mu       sync.Mutex
	matrices map[[2]int]*matrixSlot
}

// NewEngine builds the serving engine for a finalized round. The aggregator
// must not be mutated afterwards (finalized rounds never are). Static
// per-pair tables are built eagerly; response matrices are fitted lazily on
// first use — call Warmup to prepay all of them in parallel.
func NewEngine(agg *core.Aggregator) (*Engine, error) {
	if agg == nil {
		return nil, fmt.Errorf("serve: nil aggregator")
	}
	e := &Engine{
		agg:           agg,
		schema:        agg.Schema(),
		n:             agg.N(),
		strategy:      agg.Strategy(),
		threshold:     agg.IPFThreshold(),
		matrixMaxIter: agg.MatrixMaxIter(),
		lambdaMaxIter: agg.LambdaMaxIter(),
		marginals:     make(map[int]*marginal1D),
		pairs:         make(map[[2]int]*pairPlan),
		matrices:      make(map[[2]int]*matrixSlot),
	}
	for _, sp := range agg.Specs() {
		if sp.Is1D() {
			continue
		}
		key := [2]int{sp.AttrX, sp.AttrY}
		if _, ok := e.pairs[key]; ok {
			continue
		}
		plan := &pairPlan{}
		if e.strategy == core.OHG && agg.NeedsMatrix(sp.AttrX, sp.AttrY) {
			plan.lazy = true
		} else {
			g2, ok := agg.Grid2D(sp.AttrX, sp.AttrY)
			if !ok {
				return nil, fmt.Errorf("serve: spec names pair (%d,%d) but no grid exists", sp.AttrX, sp.AttrY)
			}
			sat, err := expandedSAT(g2)
			if err != nil {
				return nil, err
			}
			plan.sat = sat
		}
		e.pairs[key] = plan
	}
	for attr := 0; attr < e.schema.Len(); attr++ {
		if g1, ok := agg.Grid1D(attr); ok {
			e.marginals[attr] = newMarginal1D(g1.ValueMarginal())
			continue
		}
		if key, ok := agg.CoveringGrid2D(attr); ok {
			g2, _ := agg.Grid2D(key[0], key[1])
			vals, err := g2.ValueMarginal(attr)
			if err != nil {
				return nil, err
			}
			e.marginals[attr] = newMarginal1D(vals)
		}
	}
	return e, nil
}

// FromSnapshot rebuilds a serving engine from a persisted round snapshot.
// Because core.Snapshot captures the post-processed grids as exact float64
// values (Go's JSON encoding round-trips float64 losslessly), the restored
// engine answers bit-identically to the engine the round was serving when
// the snapshot was taken.
func FromSnapshot(s core.Snapshot) (*Engine, error) {
	agg, err := core.Restore(s)
	if err != nil {
		return nil, err
	}
	return NewEngine(agg)
}

// expandedSAT builds the summed-area table of a 2-D grid's uniform per-value
// expansion: value (v, w) carries freq(cell)/(wx·wy), so a span sum over the
// table equals Grid2D.Mass of the corresponding selection.
func expandedSAT(g *grid.Grid2D) (*estimate.SummedArea, error) {
	di, dj := g.X.Domain(), g.Y.Domain()
	vals := make([]float64, di*dj)
	lx, ly := g.X.Cells(), g.Y.Cells()
	for cx := 0; cx < lx; cx++ {
		xLo, xHi := g.X.CellRange(cx)
		for cy := 0; cy < ly; cy++ {
			yLo, yHi := g.Y.CellRange(cy)
			share := g.At(cx, cy) / float64((xHi-xLo)*(yHi-yLo))
			for v := xLo; v < xHi; v++ {
				row := vals[v*dj : (v+1)*dj]
				for w := yLo; w < yHi; w++ {
					row[w] = share
				}
			}
		}
	}
	return estimate.NewSummedArea(di, dj, vals)
}

// Schema returns the schema the engine serves.
func (e *Engine) Schema() *domain.Schema { return e.schema }

// N returns the population size of the served round.
func (e *Engine) N() int { return e.n }

// Aggregator returns the finalized round the engine was built from.
func (e *Engine) Aggregator() *core.Aggregator { return e.agg }

// Warmup fits every not-yet-built response matrix in parallel (via the same
// fan-out grid estimation uses), so the first query burst after a round swap
// never pays an Algorithm-3 fit inline. Idempotent and safe to run
// concurrently with queries; returns the first build error in pair order.
// Each call is observed once on the serve.warmup timer, so /v1/status shows
// what warming a round costs.
func (e *Engine) Warmup() error {
	start := time.Now()
	defer func() { warmupTimer.Observe(time.Since(start)) }()
	var keys [][2]int
	for key, plan := range e.pairs {
		if plan.lazy {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return core.FanOut(len(keys), func(i int) error {
		_, err := e.pairSAT(keys[i][0], keys[i][1])
		return err
	})
}

// Answer estimates the fractional answer f_q of a multidimensional query
// (§5.6) from the engine's prefix-summed surfaces: 1-D queries read the best
// marginal, λ ≥ 2 queries recombine all C(λ,2) associated 2-D answers with
// Algorithm 4. Answers agree with a per-value mask scan over the same grids
// and matrices up to floating-point summation order (the summed-area tables
// add the same masses by differencing rather than by scanning).
func (e *Engine) Answer(q query.Query) (float64, error) {
	start := time.Now()
	defer func() { queryTimer.Observe(time.Since(start)) }()
	if err := q.Validate(e.schema); err != nil {
		return 0, err
	}
	lambda := q.Lambda()
	if lambda == 1 {
		return e.answer1D(q.Preds[0])
	}

	attrs := q.Attrs()
	spans := make(map[int][]estimate.Span, lambda)
	compl := make(map[int][]estimate.Span, lambda)
	for _, p := range q.Preds {
		d := e.schema.Attr(p.Attr).Size
		s := p.Spans(d)
		spans[p.Attr] = s
		compl[p.Attr] = estimate.ComplementSpans(s, d)
	}

	pairs := make([]estimate.PairAnswer, 0, lambda*(lambda-1)/2)
	for ii := 0; ii < lambda; ii++ {
		for jj := ii + 1; jj < lambda; jj++ {
			ai, aj := attrs[ii], attrs[jj]
			pa, err := e.pairAnswer(ai, aj, spans[ai], spans[aj], compl[ai], compl[aj])
			if err != nil {
				return 0, err
			}
			pa.I, pa.J = ii, jj
			pairs = append(pairs, pa)
		}
	}
	return estimate.EstimateLambda(lambda, pairs, e.threshold, e.lambdaMaxIter)
}

// Result carries one batch entry's outcome.
type Result struct {
	Estimate float64
	Err      error
}

// AnswerBatch answers a workload concurrently across GOMAXPROCS workers and
// returns one Result per query, in input order. Individual query failures
// land in their Result; the batch itself never fails.
func (e *Engine) AnswerBatch(qs []query.Query) []Result {
	out := make([]Result, len(qs))
	core.FanOut(len(qs), func(i int) error {
		out[i].Estimate, out[i].Err = e.Answer(qs[i])
		return nil
	})
	return out
}

// ExpectedError returns the analytic a-priori error estimate of the query
// (identical to Aggregator.ExpectedError, which is already index-backed and
// lock-free).
func (e *Engine) ExpectedError(q query.Query) (float64, error) {
	return e.agg.ExpectedError(q)
}

// answer1D reads the attribute's prefix-summed marginal: O(#spans) corner
// lookups.
func (e *Engine) answer1D(p query.Predicate) (float64, error) {
	m, ok := e.marginals[p.Attr]
	if !ok {
		return 0, fmt.Errorf("serve: no grid covers attribute %d", p.Attr)
	}
	return m.spanSum(p.Spans(e.schema.Attr(p.Attr).Size)), nil
}

// pairAnswer computes the four sign-combination answers of the associated
// 2-D query on attributes (i < j) as span sums over the pair's summed-area
// table.
func (e *Engine) pairAnswer(i, j int, selI, selJ, notI, notJ []estimate.Span) (estimate.PairAnswer, error) {
	sat, err := e.pairSAT(i, j)
	if err != nil {
		return estimate.PairAnswer{}, err
	}
	return estimate.PairAnswer{
		PP: sat.SpanSum(selI, selJ),
		PN: sat.SpanSum(selI, notJ),
		NP: sat.SpanSum(notI, selJ),
		NN: sat.SpanSum(notI, notJ),
	}, nil
}

// pairSAT returns the pair's summed-area table, fitting the response matrix
// under per-pair singleflight on first use. The engine lock guards only the
// slot map — never the O(di·dj + atoms·iter) fit — so a miss on pair (a,b)
// cannot stall hits or misses on any other pair.
func (e *Engine) pairSAT(i, j int) (*estimate.SummedArea, error) {
	key := [2]int{i, j}
	plan, ok := e.pairs[key]
	if !ok {
		return nil, fmt.Errorf("serve: no 2-D grid for pair (%d,%d)", i, j)
	}
	if !plan.lazy {
		return plan.sat, nil
	}
	e.mu.Lock()
	if slot, ok := e.matrices[key]; ok {
		e.mu.Unlock()
		cacheHits.Inc()
		<-slot.ready
		return slot.sat, slot.err
	}
	slot := &matrixSlot{ready: make(chan struct{})}
	e.matrices[key] = slot
	e.mu.Unlock()
	cacheMisses.Inc()

	if hook := testHookMatrixFit; hook != nil {
		hook(key)
	}
	slot.sat, slot.err = e.buildMatrixSAT(i, j)
	close(slot.ready)
	return slot.sat, slot.err
}

// buildMatrixSAT fits pair (i, j)'s response matrix (Algorithm 3) with
// exactly the aggregator's constraints and parameters, then folds it into a
// summed-area table.
func (e *Engine) buildMatrixSAT(i, j int) (*estimate.SummedArea, error) {
	m, err := estimate.NewMatrix(e.schema.Attr(i).Size, e.schema.Attr(j).Size)
	if err != nil {
		return nil, err
	}
	cons, err := e.agg.PairConstraints(i, j)
	if err != nil {
		return nil, err
	}
	m.Fit(cons, e.threshold, e.matrixMaxIter)
	return m.SummedArea()
}
