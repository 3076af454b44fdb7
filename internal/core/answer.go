package core

import (
	"fmt"
	"math"

	"felip/internal/query"
)

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

// IPFThreshold returns the round's iterative-fitting convergence threshold,
// which the serving engine uses for both the response-matrix fit
// (Algorithm 3) and λ-D estimation (Algorithm 4).
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

// NeedsMatrix reports whether the pair benefits from a response matrix: at
// least one related 1-D grid exists to refine the 2-D grid (§5.5). A
// categorical×categorical grid is already its own response matrix.
func (a *Aggregator) NeedsMatrix(i, j int) bool {
	_, okI := a.grids1[i]
	_, okJ := a.grids1[j]
	return okI || okJ
}
