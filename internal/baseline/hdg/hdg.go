// Package hdg implements the TDG and HDG baselines (Yang et al., VLDB'21;
// summarized in the FELIP paper §3.2): grid-based answering of
// multidimensional *range* queries under LDP.
//
// Both baselines treat every attribute as numerical with a common domain,
// use the OLH protocol exclusively, give every 2-D grid the same granularity
// g₂ (and every 1-D grid the same g₁ for HDG), and snap granularities to the
// nearest power of two — the design decisions FELIP's OUG/OHG improve on.
package hdg

import (
	"fmt"
	"math"
	"sync"

	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/estimate"
	"felip/internal/fo"
	"felip/internal/grid"
	"felip/internal/gridopt"
	"felip/internal/postproc"
	"felip/internal/query"
)

// Variant selects the baseline.
type Variant uint8

const (
	// TDG (Two-Dimensional Grid) collects only 2-D grids and answers with
	// the uniformity assumption.
	TDG Variant = iota
	// HDG (Hybrid-Dimensional Grid) adds 1-D grids and response matrices.
	HDG
)

// String returns "TDG" or "HDG".
func (v Variant) String() string {
	switch v {
	case TDG:
		return "TDG"
	case HDG:
		return "HDG"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Options configures a TDG/HDG collection round.
type Options struct {
	// Variant is TDG or HDG.
	Variant Variant
	// Epsilon is the per-user privacy budget ε.
	Epsilon float64
	// Seed makes the round deterministic. Zero draws a fresh seed.
	Seed uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Epsilon <= 0 {
		return o, fmt.Errorf("hdg: epsilon must be positive, got %v", o.Epsilon)
	}
	if o.Variant != TDG && o.Variant != HDG {
		return o, fmt.Errorf("hdg: unknown variant %v", o.Variant)
	}
	if o.Seed == 0 {
		o.Seed = fo.AutoSeed()
	}
	return o, nil
}

// snapPow2 returns the power of two nearest to x (in log scale), clamped to
// [1, d] — the granularity rounding TDG/HDG require so cells divide the
// domain evenly (§3.2).
func snapPow2(x float64, d int) int {
	if x <= 1 {
		return 1
	}
	exp := math.Round(math.Log2(x))
	g := 1 << int(exp)
	for g > d {
		g >>= 1
	}
	if g < 1 {
		g = 1
	}
	return g
}

// Granularities returns the paper-formula grid sizes before and after the
// power-of-two snapping: g₁ (HDG's 1-D grids) and g₂ (2-D grids), derived
// from the error analysis at the fixed assumed selectivity r = 0.5.
func Granularities(opts Options, k, d, n int) (g1, g2 int, err error) {
	opts, err = opts.withDefaults()
	if err != nil {
		return 0, 0, err
	}
	m := k * (k - 1) / 2
	if opts.Variant == HDG {
		m += k
	}
	p := gridopt.Params{Epsilon: opts.Epsilon, N: n, M: m}.WithDefaults()
	g1raw := gridopt.Optimal1DOLH(p, 0.5)
	ee := math.Exp(opts.Epsilon)
	g2raw := math.Sqrt(2*p.Alpha2) * math.Pow(float64(n)*(ee-1)*(ee-1)/(float64(m)*ee), 0.25)
	return snapPow2(g1raw, d), snapPow2(g2raw, d), nil
}

// Aggregator is the server side of a TDG/HDG round.
type Aggregator struct {
	schema *domain.Schema
	opts   Options
	n      int
	g1, g2 int

	grids1 []*grid.Grid1D // HDG only, indexed by attribute
	grids2 map[[2]int]*grid.Grid2D
	var01  float64
	var02  float64

	mu       sync.Mutex
	matrices map[[2]int]*estimate.Matrix
}

// Collect runs a full TDG or HDG round over the dataset. Every attribute
// must be numerical (the baselines only support range queries); domains may
// differ, but the granularity formulas use the first attribute's domain as
// the common d, as the baselines assume equal domains.
func Collect(ds *dataset.Dataset, opts Options) (*Aggregator, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	schema := ds.Schema()
	k := schema.Len()
	if k < 2 {
		return nil, fmt.Errorf("hdg: need at least 2 attributes, got %d", k)
	}
	for i := 0; i < k; i++ {
		if !schema.Attr(i).IsNumerical() {
			return nil, fmt.Errorf("hdg: attribute %q is categorical; TDG/HDG support numerical attributes only", schema.Attr(i).Name)
		}
	}
	n := ds.N()
	if n < 1 {
		return nil, fmt.Errorf("hdg: need at least 1 user")
	}
	d := schema.Attr(0).Size
	g1, g2, err := Granularities(opts, k, d, n)
	if err != nil {
		return nil, err
	}

	pairs := schema.Pairs()
	m := len(pairs)
	if opts.Variant == HDG {
		m += k
	}

	agg := &Aggregator{
		schema:   schema,
		opts:     opts,
		n:        n,
		g1:       g1,
		g2:       g2,
		grids2:   make(map[[2]int]*grid.Grid2D, len(pairs)),
		matrices: make(map[[2]int]*estimate.Matrix),
	}
	if opts.Variant == HDG {
		agg.grids1 = make([]*grid.Grid1D, k)
	}

	// Build the grid specs in deterministic order: 1-D grids (HDG) then all
	// pairs.
	type spec struct {
		attrX, attrY int // attrY = -1 for 1-D
		axX, axY     *grid.Axis
	}
	var specs []spec
	if opts.Variant == HDG {
		for i := 0; i < k; i++ {
			ax, err := grid.NewAxis(schema.Attr(i).Size, g1)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec{attrX: i, attrY: -1, axX: ax})
		}
	}
	for _, pq := range pairs {
		axX, err := grid.NewAxis(schema.Attr(pq[0]).Size, g2)
		if err != nil {
			return nil, err
		}
		axY, err := grid.NewAxis(schema.Attr(pq[1]).Size, g2)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{attrX: pq[0], attrY: pq[1], axX: axX, axY: axY})
	}

	rng := fo.NewRand(opts.Seed)
	assign := ds.Split(m, rng)
	groupVals := make([][]int, m)
	for row, g := range assign {
		sp := specs[g]
		var cell int
		if sp.attrY < 0 {
			cell = sp.axX.CellOf(ds.Value(row, sp.attrX))
		} else {
			cell = sp.axX.CellOf(ds.Value(row, sp.attrX))*sp.axY.Cells() + sp.axY.CellOf(ds.Value(row, sp.attrY))
		}
		groupVals[g] = append(groupVals[g], cell)
	}

	for gi, sp := range specs {
		L := sp.axX.Cells()
		if sp.attrY >= 0 {
			L *= sp.axY.Cells()
		}
		freq, err := fo.Estimate(fo.OLH, opts.Epsilon, L, groupVals[gi], rng.Uint64())
		if err != nil {
			return nil, err
		}
		if sp.attrY < 0 {
			g1d := grid.NewGrid1D(sp.attrX, sp.axX)
			if err := g1d.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids1[sp.attrX] = g1d
		} else {
			g2d := grid.NewGrid2D(sp.attrX, sp.attrY, sp.axX, sp.axY)
			if err := g2d.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids2[[2]int{sp.attrX, sp.attrY}] = g2d
		}
	}

	nGroup := n/m + 1
	agg.var01 = fo.OLHVariance(opts.Epsilon, nGroup)
	agg.var02 = agg.var01
	agg.postProcess()
	return agg, nil
}

// postProcess mirrors the aggregator-side negativity removal and consistency
// of the baselines (§3.2).
func (a *Aggregator) postProcess() {
	k := a.schema.Len()
	var attrViews [][]postproc.View
	for attr := 0; attr < k; attr++ {
		var views []postproc.View
		if a.opts.Variant == HDG {
			g1 := a.grids1[attr]
			views = append(views, postproc.View{
				Axis: g1.Axis, Freq: g1.Freq,
				Cols: postproc.Columns1D(g1.L()), Var0: a.var01,
			})
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g2, ok := a.grids2[[2]int{i, j}]
				if !ok {
					continue
				}
				switch attr {
				case i:
					views = append(views, postproc.View{
						Axis: g2.X, Freq: g2.Freq,
						Cols: postproc.ColumnsX(g2.X.Cells(), g2.Y.Cells()), Var0: a.var02,
					})
				case j:
					views = append(views, postproc.View{
						Axis: g2.Y, Freq: g2.Freq,
						Cols: postproc.ColumnsY(g2.X.Cells(), g2.Y.Cells()), Var0: a.var02,
					})
				}
			}
		}
		if len(views) > 1 {
			attrViews = append(attrViews, views)
		}
	}
	var freqs [][]float64
	for _, g1 := range a.grids1 {
		if g1 != nil {
			freqs = append(freqs, g1.Freq)
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g2, ok := a.grids2[[2]int{i, j}]; ok {
				freqs = append(freqs, g2.Freq)
			}
		}
	}
	postproc.Pipeline(attrViews, freqs, postproc.Rounds)
}

// G1 returns the (snapped) 1-D granularity; 0 for TDG.
func (a *Aggregator) G1() int {
	if a.opts.Variant == TDG {
		return 0
	}
	return a.g1
}

// G2 returns the (snapped) 2-D granularity.
func (a *Aggregator) G2() int { return a.g2 }

// N returns the population size.
func (a *Aggregator) N() int { return a.n }

// Answer estimates the fractional answer of a range query: 1-D queries read
// the best marginal, and λ ≥ 2 queries recombine the C(λ,2) associated 2-D
// answers with the IPF of Algorithm 4 (which TDG/HDG introduced).
func (a *Aggregator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(a.schema); err != nil {
		return 0, err
	}
	for _, p := range q.Preds {
		if p.Op != query.Between {
			return 0, fmt.Errorf("hdg: %v only supports range (BETWEEN) predicates", a.opts.Variant)
		}
	}
	lambda := q.Lambda()
	if lambda == 1 {
		p := q.Preds[0]
		sel := p.Selection(a.schema.Attr(p.Attr).Size)
		if a.opts.Variant == HDG {
			return a.grids1[p.Attr].Mass(sel), nil
		}
		for i := 0; i < a.schema.Len(); i++ {
			for j := i + 1; j < a.schema.Len(); j++ {
				if i != p.Attr && j != p.Attr {
					continue
				}
				g2 := a.grids2[[2]int{i, j}]
				marg, err := g2.ValueMarginal(p.Attr)
				if err != nil {
					return 0, err
				}
				var s float64
				for v, f := range marg {
					if sel[v] {
						s += f
					}
				}
				return s, nil
			}
		}
		return 0, fmt.Errorf("hdg: no grid covers attribute %d", p.Attr)
	}

	attrs := q.Attrs()
	sels := make(map[int][]bool, lambda)
	for _, p := range q.Preds {
		sels[p.Attr] = p.Selection(a.schema.Attr(p.Attr).Size)
	}
	var pairs []estimate.PairAnswer
	for ii := 0; ii < lambda; ii++ {
		for jj := ii + 1; jj < lambda; jj++ {
			ai, aj := attrs[ii], attrs[jj]
			pa, err := a.pairAnswer(ai, aj, sels[ai], sels[aj])
			if err != nil {
				return 0, err
			}
			pa.I, pa.J = ii, jj
			pairs = append(pairs, pa)
		}
	}
	return estimate.EstimateLambda(lambda, pairs, 1/float64(a.n), estimate.LambdaMaxIter)
}

func negate(sel []bool) []bool {
	out := make([]bool, len(sel))
	for i, b := range sel {
		out[i] = !b
	}
	return out
}

func (a *Aggregator) pairAnswer(i, j int, selI, selJ []bool) (estimate.PairAnswer, error) {
	notI, notJ := negate(selI), negate(selJ)
	if a.opts.Variant == HDG {
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
		return estimate.PairAnswer{}, fmt.Errorf("hdg: no grid for pair (%d,%d)", i, j)
	}
	return estimate.PairAnswer{
		PP: g2.Mass(selI, selJ),
		PN: g2.Mass(selI, notJ),
		NP: g2.Mass(notI, selJ),
		NN: g2.Mass(notI, notJ),
	}, nil
}

// responseMatrix builds (and caches) the per-value response matrix of a pair
// from Γ = {G(i), G(j), G(i,j)} via Algorithm 3.
func (a *Aggregator) responseMatrix(i, j int) (*estimate.Matrix, error) {
	key := [2]int{i, j}
	a.mu.Lock()
	defer a.mu.Unlock()
	if m, ok := a.matrices[key]; ok {
		return m, nil
	}
	g2, ok := a.grids2[key]
	if !ok {
		return nil, fmt.Errorf("hdg: no grid for pair (%d,%d)", i, j)
	}
	m := estimate.FitProduct(g2, a.grids1[i], a.grids1[j], 1/float64(a.n), estimate.MatrixMaxIter).Matrix()
	a.matrices[key] = m
	return m, nil
}
