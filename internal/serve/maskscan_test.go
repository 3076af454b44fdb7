package serve

import (
	"fmt"

	"felip/internal/core"
	"felip/internal/estimate"
	"felip/internal/query"
)

// maskScan is the reference the engine is checked against: it answers a
// query as §5.5–§5.6 state it, summing per-value selection masks over the
// round's grids and over response matrices fitted on first use, through
// core's exported accessors only. Its response matrices come from the
// entry-wise reference fit (denseResponse), not the engine's product fit;
// with the engine it shares just Algorithm 4 (estimate.EstimateLambda). Not
// safe for concurrent use.
type maskScan struct {
	agg      *core.Aggregator
	matrices map[[2]int]*estimate.Matrix
}

func newMaskScan(agg *core.Aggregator) *maskScan {
	return &maskScan{agg: agg, matrices: make(map[[2]int]*estimate.Matrix)}
}

// Answer reads 1-D queries off the best marginal and recombines the
// C(λ,2) associated 2-D answers of λ ≥ 2 queries with Algorithm 4.
func (r *maskScan) Answer(q query.Query) (float64, error) {
	schema := r.agg.Schema()
	if err := q.Validate(schema); err != nil {
		return 0, err
	}
	lambda := q.Lambda()
	if lambda == 1 {
		return r.answer1D(q.Preds[0])
	}
	sels := make(map[int][]bool, lambda)
	nots := make(map[int][]bool, lambda)
	for _, p := range q.Preds {
		sel := p.Selection(schema.Attr(p.Attr).Size)
		not := make([]bool, len(sel))
		for v, in := range sel {
			not[v] = !in
		}
		sels[p.Attr], nots[p.Attr] = sel, not
	}
	attrs := q.Attrs()
	var pairs []estimate.PairAnswer
	for ii := 0; ii < lambda; ii++ {
		for jj := ii + 1; jj < lambda; jj++ {
			ai, aj := attrs[ii], attrs[jj]
			pa, err := r.pairAnswer(ai, aj, sels[ai], sels[aj], nots[ai], nots[aj])
			if err != nil {
				return 0, err
			}
			pa.I, pa.J = ii, jj
			pairs = append(pairs, pa)
		}
	}
	return estimate.EstimateLambda(lambda, pairs, r.agg.IPFThreshold(), r.agg.LambdaMaxIter())
}

// answer1D reads the attribute's own 1-D grid, or else the marginal of its
// covering 2-D grid.
func (r *maskScan) answer1D(p query.Predicate) (float64, error) {
	sel := p.Selection(r.agg.Schema().Attr(p.Attr).Size)
	if g1, ok := r.agg.Grid1D(p.Attr); ok {
		return g1.Mass(sel), nil
	}
	key, ok := r.agg.CoveringGrid2D(p.Attr)
	if !ok {
		return 0, fmt.Errorf("maskscan: no grid covers attribute %d", p.Attr)
	}
	g2, _ := r.agg.Grid2D(key[0], key[1])
	marg, err := g2.ValueMarginal(p.Attr)
	if err != nil {
		return 0, err
	}
	var s float64
	for v, x := range marg {
		if sel[v] {
			s += x
		}
	}
	return s, nil
}

// pairAnswer computes the four sign-combination answers of the associated
// 2-D query on attributes (i < j): off the response matrix for OHG pairs
// with a related 1-D grid, otherwise off the 2-D grid under uniformity.
func (r *maskScan) pairAnswer(i, j int, selI, selJ, notI, notJ []bool) (estimate.PairAnswer, error) {
	if r.agg.Strategy() == core.OHG && r.agg.NeedsMatrix(i, j) {
		m, err := r.matrix(i, j)
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
	g2, ok := r.agg.Grid2D(i, j)
	if !ok {
		return estimate.PairAnswer{}, fmt.Errorf("maskscan: no 2-D grid for pair (%d,%d)", i, j)
	}
	return estimate.PairAnswer{
		PP: g2.Mass(selI, selJ),
		PN: g2.Mass(selI, notJ),
		NP: g2.Mass(notI, selJ),
		NN: g2.Mass(notI, notJ),
	}, nil
}

// matrix fits pair (i, j)'s response matrix (Algorithm 3) once.
func (r *maskScan) matrix(i, j int) (*estimate.Matrix, error) {
	key := [2]int{i, j}
	if m, ok := r.matrices[key]; ok {
		return m, nil
	}
	m, err := denseResponse(r.agg, i, j)
	if err != nil {
		return nil, err
	}
	r.matrices[key] = m
	return m, nil
}
