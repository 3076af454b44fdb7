package core

import (
	"fmt"

	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/grid"
	"felip/internal/longitudinal"
	"felip/internal/postproc"
)

// estimateLongitudinal simulates one grid's two-stage longitudinal round:
// every value is memoized at ε_perm (stage 1) and perturbed by the per-round
// stage (stage 2), then the composed chain is inverted.
func estimateLongitudinal(cfg fo.Longitudinal, L int, values []int, seed uint64) ([]float64, error) {
	st, err := longitudinal.NewStages(cfg, L)
	if err != nil {
		return nil, err
	}
	r := fo.NewRand(seed)
	counts := make([]int64, L)
	for _, v := range values {
		b, err := st.Memoize(v, r)
		if err != nil {
			return nil, err
		}
		y, err := st.Perturb(b, r)
		if err != nil {
			return nil, err
		}
		counts[y]++
	}
	return longitudinal.Estimates(cfg, L, counts, len(values))
}

// Aggregator is the server side of FELIP after a completed collection round:
// it holds the post-processed grids, their noise variances and the planner's
// expected errors. It is immutable once built, so any number of goroutines
// may read it; serve.Engine answers queries from it.
type Aggregator struct {
	schema *domain.Schema
	opts   Options
	specs  []GridSpec
	n      int

	grids1 map[int]*grid.Grid1D
	grids2 map[[2]int]*grid.Grid2D
	// var0 holds each grid's per-cell noise variance (keyed like grids).
	var01 map[int]float64
	var02 map[[2]int]float64

	// Query-time lookup index (buildIndex): per-grid expected errors and each
	// attribute's covering 2-D grid, replacing per-query spec scans.
	err1   map[int]float64
	err2   map[[2]int]float64
	cover2 map[int][2]int
}

// Collect runs a full FELIP round over the dataset: plan the grids (§5.2,
// §5.3), divide the population into groups (§5.1), perturb every user's
// report client-side under ε-LDP, estimate every grid's cell frequencies,
// and post-process (§5.4). serve.NewEngine answers queries from the returned
// Aggregator.
func Collect(ds *dataset.Dataset, opts Options) (*Aggregator, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	schema := ds.Schema()
	n := ds.N()
	specs, err := BuildPlan(schema, n, opts)
	if err != nil {
		return nil, err
	}

	m := len(specs)
	rng := fo.NewRand(opts.Seed)

	// Group sizes and per-grid report streams, per reporting mode. The legacy
	// DivideBudget ablation is the SPL stream shape on the FELIP-shaped plan
	// (BuildPlan saw Mode == ModeFELIP), so Theorem 5.1 is compared at
	// matched grids; Mode == ModeSPL runs the same streams on SPL-planned
	// grids.
	var groupValues [][]int
	var groupEps float64
	switch {
	case opts.DivideBudget || opts.Mode == fo.ModeSPL:
		// Budget split: every user reports every grid with ε/m.
		groupEps = opts.Epsilon / float64(m)
		groupValues = make([][]int, m)
		for g := range specs {
			vals := make([]int, n)
			spec := specs[g]
			for row := 0; row < n; row++ {
				vals[row] = spec.CellOf(func(attr int) int { return ds.Value(row, attr) })
			}
			groupValues[g] = vals
		}
	case opts.Mode == fo.ModeRSFD:
		// RS+FD: every user reports every grid at the amplified ε'; one
		// uniformly-sampled grid carries the true cell, the rest uniform fake
		// cells. All sampling runs on the round rng row-by-row, so the round
		// is deterministic under its seed.
		groupEps = fo.AmplifiedEpsilon(opts.Epsilon, m)
		groupValues = make([][]int, m)
		for g := range specs {
			groupValues[g] = make([]int, n)
		}
		for row := 0; row < n; row++ {
			realG := rng.IntN(m)
			for g := range specs {
				if g == realG {
					groupValues[g][row] = specs[g].CellOf(func(attr int) int { return ds.Value(row, attr) })
				} else {
					groupValues[g][row] = rng.IntN(specs[g].L())
				}
			}
		}
	default:
		// The paper's design: partition users uniformly into m groups.
		groupEps = opts.Epsilon
		assign := ds.Split(m, rng)
		groupValues = make([][]int, m)
		for g := range groupValues {
			groupValues[g] = make([]int, 0, n/m+1)
		}
		for row, g := range assign {
			spec := specs[g]
			groupValues[g] = append(groupValues[g], spec.CellOf(func(attr int) int { return ds.Value(row, attr) }))
		}
	}

	// Estimate all grids concurrently via the shared fan-out. Per-grid seeds
	// are drawn sequentially first, so results are bit-identical regardless
	// of scheduling.
	seeds := make([]uint64, len(specs))
	for g := range seeds {
		seeds[g] = rng.Uint64()
	}
	freqs, err := estimateGrids(len(specs), func(g int) ([]float64, error) {
		spec := specs[g]
		var est []float64
		var err error
		if opts.Longitudinal != nil {
			// Simulate the two-stage chain: memoize once at ε_perm, perturb at
			// the per-round stage, invert the composed channel. One round of
			// Collect is the device population's first round.
			est, err = estimateLongitudinal(*opts.Longitudinal, spec.L(), groupValues[g], seeds[g])
		} else if opts.Mode == fo.ModeRSFD {
			// Perturb at ε' and invert the fake-data mix at estimation.
			est, err = fo.EstimateRSFD(spec.Proto, opts.Epsilon, spec.L(), m, groupValues[g], seeds[g])
		} else {
			est, err = fo.Estimate(spec.Proto, groupEps, spec.L(), groupValues[g], seeds[g])
		}
		if err != nil {
			return nil, fmt.Errorf("core: grid %v: %w", spec, err)
		}
		return est, nil
	})
	if err != nil {
		return nil, err
	}

	groupNs := make([]int, m)
	for g := range groupValues {
		groupNs[g] = len(groupValues[g])
	}
	return assembleAggregator(schema, opts, specs, n, freqs, groupNs, groupEps)
}

// assembleAggregator attaches estimated frequency vectors to the planned
// grids and runs post-processing. It is shared by the simulated path
// (Collect) and the incremental report-driven path (Collector.Finalize).
func assembleAggregator(schema *domain.Schema, opts Options, specs []GridSpec, n int, freqs [][]float64, groupNs []int, groupEps float64) (*Aggregator, error) {
	agg := &Aggregator{
		schema: schema,
		opts:   opts,
		specs:  specs,
		n:      n,
		grids1: make(map[int]*grid.Grid1D),
		grids2: make(map[[2]int]*grid.Grid2D),
		var01:  make(map[int]float64),
		var02:  make(map[[2]int]float64),
	}
	for g, spec := range specs {
		freq := freqs[g]
		var var0 float64
		if opts.Longitudinal != nil {
			// The composed per-round channel is GRR(ε_1), so this equals the
			// GRR variance at the per-round budget — taken from the
			// longitudinal inversion so estimator and weights cannot drift.
			var0 = longitudinal.Variance(*opts.Longitudinal, spec.L(), max(groupNs[g], 1))
		} else if opts.Mode == fo.ModeRSFD {
			// The fake-data inversion inflates the per-cell variance beyond the
			// raw ε' protocol variance; use the corrected form.
			var0 = fo.RSFDVariance(spec.Proto, opts.Epsilon, spec.L(), len(specs), max(groupNs[g], 1))
		} else {
			var0 = spec.Proto.Variance(groupEps, spec.L(), max(groupNs[g], 1))
		}
		if spec.Is1D() {
			g1 := grid.NewGrid1D(spec.AttrX, spec.AxisX)
			if err := g1.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids1[spec.AttrX] = g1
			agg.var01[spec.AttrX] = var0
		} else {
			key := [2]int{spec.AttrX, spec.AttrY}
			g2 := grid.NewGrid2D(spec.AttrX, spec.AttrY, spec.AxisX, spec.AxisY)
			if err := g2.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids2[key] = g2
			agg.var02[key] = var0
		}
	}
	agg.postProcess()
	agg.buildIndex()
	return agg, nil
}

// postProcess runs the interleaved consistency and Norm-Sub rounds (§5.4).
func (a *Aggregator) postProcess() {
	// Iterate in spec order everywhere: map iteration order would make the
	// floating-point results run-to-run nondeterministic.
	var attrViews [][]postproc.View
	for attr := 0; attr < a.schema.Len(); attr++ {
		var views []postproc.View
		if g1, ok := a.grids1[attr]; ok {
			views = append(views, postproc.View{
				Axis: g1.Axis,
				Freq: g1.Freq,
				Cols: postproc.Columns1D(g1.L()),
				Var0: a.var01[attr],
			})
		}
		for _, sp := range a.specs {
			if sp.Is1D() {
				continue
			}
			key := [2]int{sp.AttrX, sp.AttrY}
			g2 := a.grids2[key]
			switch attr {
			case g2.XAttr:
				views = append(views, postproc.View{
					Axis: g2.X,
					Freq: g2.Freq,
					Cols: postproc.ColumnsX(g2.X.Cells(), g2.Y.Cells()),
					Var0: a.var02[key],
				})
			case g2.YAttr:
				views = append(views, postproc.View{
					Axis: g2.Y,
					Freq: g2.Freq,
					Cols: postproc.ColumnsY(g2.X.Cells(), g2.Y.Cells()),
					Var0: a.var02[key],
				})
			}
		}
		if len(views) > 1 {
			attrViews = append(attrViews, views)
		}
	}
	var freqs [][]float64
	for _, sp := range a.specs {
		if sp.Is1D() {
			freqs = append(freqs, a.grids1[sp.AttrX].Freq)
		} else {
			freqs = append(freqs, a.grids2[[2]int{sp.AttrX, sp.AttrY}].Freq)
		}
	}
	postproc.Pipeline(attrViews, freqs, postproc.Rounds)
}

// Schema returns the schema the aggregator was built over.
func (a *Aggregator) Schema() *domain.Schema { return a.schema }

// N returns the population size of the collection round.
func (a *Aggregator) N() int { return a.n }

// Specs returns the grid plan of the round (one spec per user group).
func (a *Aggregator) Specs() []GridSpec {
	out := make([]GridSpec, len(a.specs))
	copy(out, a.specs)
	return out
}

// Grid1D returns the post-processed 1-D grid of a numerical attribute, if
// the strategy collected one.
func (a *Aggregator) Grid1D(attr int) (*grid.Grid1D, bool) {
	g, ok := a.grids1[attr]
	return g, ok
}

// Grid2D returns the post-processed 2-D grid of an attribute pair (i < j).
func (a *Aggregator) Grid2D(i, j int) (*grid.Grid2D, bool) {
	g, ok := a.grids2[[2]int{i, j}]
	return g, ok
}
