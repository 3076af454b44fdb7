package core

import (
	"fmt"
	"math"

	"felip/internal/estimate"
	"felip/internal/query"
)

// Answer estimates the fractional answer f_q of a multidimensional query
// (§5.6): 1-D queries read the best marginal directly; λ ≥ 2 queries are
// split into all C(λ,2) associated 2-D queries, answered per pair (directly
// off the grid for OUG, via the response matrix for OHG), and recombined
// with Algorithm 4.
func (a *Aggregator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(a.schema); err != nil {
		return 0, err
	}
	lambda := q.Lambda()
	if lambda == 1 {
		return a.answer1D(q.Preds[0])
	}

	attrs := q.Attrs()
	// Selections and their negations are materialized once per predicate, not
	// per associated pair: a λ-D query used to rebuild each predicate's
	// negation mask λ−1 times inside pairAnswer.
	sels := make(map[int][]bool, lambda)
	nots := make(map[int][]bool, lambda)
	for _, p := range q.Preds {
		sel := p.Selection(a.schema.Attr(p.Attr).Size)
		sels[p.Attr] = sel
		nots[p.Attr] = negate(sel)
	}

	var pairs []estimate.PairAnswer
	for ii := 0; ii < lambda; ii++ {
		for jj := ii + 1; jj < lambda; jj++ {
			ai, aj := attrs[ii], attrs[jj]
			pa, err := a.pairAnswer(ai, aj, sels[ai], sels[aj], nots[ai], nots[aj])
			if err != nil {
				return 0, err
			}
			pa.I, pa.J = ii, jj
			pairs = append(pairs, pa)
		}
	}
	return estimate.EstimateLambda(lambda, pairs, a.ipfThreshold(), a.opts.LambdaMaxIter)
}

// ExpectedError returns an analytic a-priori estimate of the query's root
// expected squared error, from the optimizer's per-grid minimized objectives
// (§5.7: noise + sampling + non-uniformity; the λ-D estimation error is
// dataset-dependent and not included). For λ = 1 it is the error of the
// attribute's most precise grid; for λ ≥ 2 the per-pair errors of the
// associated 2-D queries are summed. The estimate uses the selectivity prior
// the grids were sized with, so it is a planning-time figure — useful for
// choosing ε or judging whether a workload is feasible before collecting.
func (a *Aggregator) ExpectedError(q query.Query) (float64, error) {
	if err := q.Validate(a.schema); err != nil {
		return 0, err
	}
	attrs := q.Attrs()
	if len(attrs) == 1 {
		if e, ok := a.err1[attrs[0]]; ok {
			return math.Sqrt(e), nil
		}
		if key, ok := a.cover2[attrs[0]]; ok {
			return math.Sqrt(a.err2[key]), nil
		}
		return 0, fmt.Errorf("core: no grid covers attribute %d", attrs[0])
	}
	var total float64
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			e, ok := a.err2[[2]int{attrs[i], attrs[j]}]
			if !ok {
				return 0, fmt.Errorf("core: no 2-D grid for pair (%d,%d)", attrs[i], attrs[j])
			}
			total += e
		}
	}
	return math.Sqrt(total), nil
}

// defaultIPFThreshold is the iterative-fitting convergence threshold used
// when the population size is unknown. It is tighter than 1/n for any
// realistic n, so fitting still converges (maxIter bounds the work).
const defaultIPFThreshold = 1e-9

// ipfThreshold returns the paper's < 1/n convergence threshold for the
// iterative fitting sweeps. An aggregator restored from a snapshot (or built
// programmatically) can carry n = 0; the unguarded 1/n would be +Inf, which
// makes every sweep "converged" and silently stops IPF after one pass.
func (a *Aggregator) ipfThreshold() float64 {
	if a.n <= 0 {
		return defaultIPFThreshold
	}
	return 1 / float64(a.n)
}

// IPFThreshold exposes the round's iterative-fitting convergence threshold so
// an external read path (the serving engine) fits matrices with exactly the
// parameters this aggregator would use.
func (a *Aggregator) IPFThreshold() float64 { return a.ipfThreshold() }

// Strategy returns the round's grid strategy.
func (a *Aggregator) Strategy() Strategy { return a.opts.Strategy }

// MatrixMaxIter returns the response-matrix fitting sweep cap (Algorithm 3).
func (a *Aggregator) MatrixMaxIter() int { return a.opts.MatrixMaxIter }

// LambdaMaxIter returns the λ-D estimation sweep cap (Algorithm 4).
func (a *Aggregator) LambdaMaxIter() int { return a.opts.LambdaMaxIter }

// buildIndex precomputes the query-time lookup structures that replace
// per-query linear scans over the spec list: per-pair and per-attribute
// expected errors, and each attribute's covering 2-D grid (the first one in
// spec order, preserving the deterministic grid choice of the scan it
// replaces). Called once when the aggregator is assembled or restored.
func (a *Aggregator) buildIndex() {
	a.err1 = make(map[int]float64)
	a.err2 = make(map[[2]int]float64)
	a.cover2 = make(map[int][2]int)
	for _, sp := range a.specs {
		if sp.Is1D() {
			if _, ok := a.err1[sp.AttrX]; !ok {
				a.err1[sp.AttrX] = sp.ExpectedErr
			}
			continue
		}
		key := [2]int{sp.AttrX, sp.AttrY}
		if _, ok := a.err2[key]; !ok {
			a.err2[key] = sp.ExpectedErr
		}
		if _, ok := a.cover2[sp.AttrX]; !ok {
			a.cover2[sp.AttrX] = key
		}
		if _, ok := a.cover2[sp.AttrY]; !ok {
			a.cover2[sp.AttrY] = key
		}
	}
}

// CoveringGrid2D returns the pair key of the first 2-D grid (in spec order)
// containing the attribute — the deterministic fallback marginal used when an
// attribute has no 1-D grid of its own.
func (a *Aggregator) CoveringGrid2D(attr int) ([2]int, bool) {
	key, ok := a.cover2[attr]
	return key, ok
}

// answer1D estimates a single-predicate query from the most precise marginal
// available: the attribute's own 1-D grid under OHG, otherwise the marginal
// of the first 2-D grid containing the attribute (precomputed covering
// index; the choice matches the former linear scan over specs).
func (a *Aggregator) answer1D(p query.Predicate) (float64, error) {
	sel := p.Selection(a.schema.Attr(p.Attr).Size)
	if g1, ok := a.grids1[p.Attr]; ok {
		return g1.Mass(sel), nil
	}
	if key, ok := a.cover2[p.Attr]; ok {
		g2 := a.grids2[key]
		marg, err := g2.ValueMarginal(p.Attr)
		if err != nil {
			return 0, err
		}
		return maskSum(marg, sel), nil
	}
	return 0, fmt.Errorf("core: no grid covers attribute %d", p.Attr)
}

func maskSum(vals []float64, sel []bool) float64 {
	var s float64
	for i, v := range vals {
		if sel[i] {
			s += v
		}
	}
	return s
}

// pairAnswer computes the four sign-combination answers of the associated
// 2-D query on attributes (i < j). Negation masks are supplied by the caller,
// computed once per predicate per query.
func (a *Aggregator) pairAnswer(i, j int, selI, selJ, notI, notJ []bool) (estimate.PairAnswer, error) {
	if a.opts.Strategy == OHG && a.NeedsMatrix(i, j) {
		m, err := a.responseMatrix(i, j)
		if err != nil {
			return estimate.PairAnswer{}, err
		}
		return estimate.PairAnswer{
			PP: m.MaskSum(selI, selJ),
			PN: m.MaskSum(selI, notJ),
			NP: m.MaskSum(notI, selJ),
			NN: m.MaskSum(notI, notJ),
		}, nil
	}

	g2, ok := a.grids2[[2]int{i, j}]
	if !ok {
		return estimate.PairAnswer{}, fmt.Errorf("core: no 2-D grid for pair (%d,%d)", i, j)
	}
	return estimate.PairAnswer{
		PP: g2.Mass(selI, selJ),
		PN: g2.Mass(selI, notJ),
		NP: g2.Mass(notI, selJ),
		NN: g2.Mass(notI, notJ),
	}, nil
}

func negate(sel []bool) []bool {
	out := make([]bool, len(sel))
	for i, b := range sel {
		out[i] = !b
	}
	return out
}

// NeedsMatrix reports whether the pair benefits from a response matrix: at
// least one related 1-D grid exists to refine the 2-D grid (§5.5). A
// categorical×categorical grid is already its own response matrix.
func (a *Aggregator) NeedsMatrix(i, j int) bool {
	_, okI := a.grids1[i]
	_, okJ := a.grids1[j]
	return okI || okJ
}

// PairConstraints assembles the Algorithm-3 constraint set of pair (i < j)
// from its 2-D grid and whichever related 1-D grids were collected (Γ from
// §5.5: both for num×num, only the numerical one when the other attribute is
// categorical), in estimate.GridConstraints' fixed order, so every consumer —
// the aggregator's own single-mutex cache and the serving engine — fits
// bit-identical matrices.
func (a *Aggregator) PairConstraints(i, j int) ([]estimate.Constraint, error) {
	g2, ok := a.grids2[[2]int{i, j}]
	if !ok {
		return nil, fmt.Errorf("core: no 2-D grid for pair (%d,%d)", i, j)
	}
	return estimate.GridConstraints(g2, a.grids1[i], a.grids1[j]), nil
}

// responseMatrix returns the per-value response matrix M(i,j) built from the
// related grid set Γ (Algorithm 3), caching the result.
//
// This is the legacy single-mutex read path: the lock is held across the full
// matrix build and iterative fit (O(di·dj + atoms·iter), see
// estimate.Matrix.Fit), so a cache miss on one pair blocks every
// concurrent query, including cache hits on other pairs. It is preserved as
// the baseline the serving engine (internal/serve) is benchmarked against;
// heavy concurrent query traffic should go through serve.Engine, whose
// per-pair singleflight fits matrices without a global lock.
func (a *Aggregator) responseMatrix(i, j int) (*estimate.Matrix, error) {
	key := [2]int{i, j}
	a.mu.Lock()
	defer a.mu.Unlock()
	if m, ok := a.matrices[key]; ok {
		return m, nil
	}
	di := a.schema.Attr(i).Size
	dj := a.schema.Attr(j).Size
	m, err := estimate.NewMatrix(di, dj)
	if err != nil {
		return nil, err
	}
	cons, err := a.PairConstraints(i, j)
	if err != nil {
		return nil, err
	}
	m.Fit(cons, a.ipfThreshold(), a.opts.MatrixMaxIter)
	a.matrices[key] = m
	return m, nil
}
