// Package adaptive implements the data-aware two-phase extension sketched in
// the paper's future work (§7): "enhance data decomposition to avoid cells
// with low true counts, so the noise does not dominate the estimation".
//
// The population is partitioned into two disjoint phases (never splitting
// the privacy budget — each user reports exactly once with full ε, so ε-LDP
// holds by the same argument as Theorem 5.1):
//
//  1. a small fraction of users reports coarse 1-D marginals of the
//     numerical attributes through the standard FELIP machinery;
//  2. the remaining users run a normal OUG/OHG round whose numerical axes
//     are binned *equi-mass* at the quantiles of the phase-1 marginals
//     instead of equal-width, so dense regions get fine cells and sparse
//     regions are not wasted on near-empty cells.
//
// On heavily skewed data (spiked or heavy-tailed marginals) equi-mass
// binning reduces the non-uniformity error of range queries; on uniform
// data it degrades gracefully to near-equal-width cells.
package adaptive

import (
	"fmt"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/postproc"
)

// Options configures a two-phase adaptive collection.
type Options struct {
	// Core carries the phase-2 FELIP options (strategy, ε, selectivity...).
	// Core.MarginalHint is overwritten by phase 1.
	Core core.Options
	// Phase1Fraction is the share of users spent on marginal learning
	// (default 0.2).
	Phase1Fraction float64
	// Phase1Cells caps the granularity of the phase-1 marginal grids
	// (default 32 cells; clamped to each attribute's domain).
	Phase1Cells int
}

func (o Options) withDefaults() (Options, error) {
	if o.Phase1Fraction == 0 {
		o.Phase1Fraction = 0.2
	}
	if o.Phase1Fraction <= 0 || o.Phase1Fraction >= 1 {
		return o, fmt.Errorf("adaptive: phase-1 fraction %v outside (0,1)", o.Phase1Fraction)
	}
	if o.Phase1Cells == 0 {
		o.Phase1Cells = 32
	}
	if o.Phase1Cells < 2 {
		return o, fmt.Errorf("adaptive: phase-1 cells %d < 2", o.Phase1Cells)
	}
	return o, nil
}

// Aggregator holds a completed two-phase round. Queries are answered by
// serve.NewEngine(a.Inner()), like any other round.
type Aggregator struct {
	inner *core.Aggregator
	// Marginals holds the phase-1 per-value marginal estimate of each
	// numerical attribute.
	Marginals map[int][]float64
	phase1N   int
	phase2N   int
}

// Collect runs the two-phase adaptive round over the dataset.
func Collect(ds *dataset.Dataset, opts Options) (*Aggregator, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.Core.Seed == 0 {
		opts.Core.Seed = fo.AutoSeed()
	}
	schema := ds.Schema()
	numAttrs := schema.NumericalIndexes()
	if len(numAttrs) == 0 {
		// Nothing to learn; plain FELIP round.
		inner, err := core.Collect(ds, opts.Core)
		if err != nil {
			return nil, err
		}
		return &Aggregator{inner: inner, Marginals: map[int][]float64{}, phase2N: ds.N()}, nil
	}
	if ds.N() < 2*len(numAttrs) {
		return nil, fmt.Errorf("adaptive: population %d too small for two phases over %d numerical attributes", ds.N(), len(numAttrs))
	}

	rng := fo.NewRand(opts.Core.Seed)
	phase1, phase2 := ds.Partition(opts.Phase1Fraction, rng)

	// Phase 1: one group per numerical attribute reports a coarse 1-D grid.
	marginals, err := learnMarginals(phase1, numAttrs, opts, rng)
	if err != nil {
		return nil, err
	}

	// Phase 2: standard FELIP with equi-mass hints.
	coreOpts := opts.Core
	coreOpts.MarginalHint = marginals
	coreOpts.Seed = rng.Uint64()
	inner, err := core.Collect(phase2, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Aggregator{
		inner:     inner,
		Marginals: marginals,
		phase1N:   phase1.N(),
		phase2N:   phase2.N(),
	}, nil
}

// learnMarginals runs the phase-1 collection: the phase-1 users are divided
// into one group per numerical attribute; each group reports the cell of a
// coarse equal-width 1-D grid with the adaptive frequency oracle at full ε.
func learnMarginals(phase1 *dataset.Dataset, numAttrs []int, opts Options, rng *fo.Rand) (map[int][]float64, error) {
	schema := phase1.Schema()
	m := len(numAttrs)
	assign := phase1.Split(m, rng)
	groupVals := make([][]int, m)
	cells := make([]int, m)
	for gi, attr := range numAttrs {
		c := opts.Phase1Cells
		if d := schema.Attr(attr).Size; c > d {
			c = d
		}
		cells[gi] = c
	}
	for row, gi := range assign {
		attr := numAttrs[gi]
		d := schema.Attr(attr).Size
		c := cells[gi]
		groupVals[gi] = append(groupVals[gi], phase1.Value(row, attr)*c/d)
	}

	out := make(map[int][]float64, m)
	for gi, attr := range numAttrs {
		c := cells[gi]
		nGroup := len(groupVals[gi])
		if nGroup == 0 {
			continue
		}
		proto := fo.ChooseByVariance(opts.Core.Epsilon, c)
		freq, err := fo.Estimate(proto, opts.Core.Epsilon, c, groupVals[gi], rng.Uint64())
		if err != nil {
			return nil, err
		}
		postproc.NormSub(freq, 1)
		// Uniformly expand the coarse cells to a per-value marginal.
		d := schema.Attr(attr).Size
		marg := make([]float64, d)
		for cell := 0; cell < c; cell++ {
			lo := cell * d / c
			hi := (cell + 1) * d / c
			share := freq[cell] / float64(hi-lo)
			for v := lo; v < hi; v++ {
				marg[v] = share
			}
		}
		out[attr] = marg
	}
	return out, nil
}

// Specs exposes the phase-2 grid plan (with its equi-mass axes).
func (a *Aggregator) Specs() []core.GridSpec { return a.inner.Specs() }

// Phase1N and Phase2N report how the population was divided.
func (a *Aggregator) Phase1N() int { return a.phase1N }

// Phase2N reports the phase-2 population size.
func (a *Aggregator) Phase2N() int { return a.phase2N }

// Inner exposes the phase-2 core aggregator, the round a serving engine
// answers from.
func (a *Aggregator) Inner() *core.Aggregator { return a.inner }
