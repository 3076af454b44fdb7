package core

import (
	"fmt"

	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/grid"
	"felip/internal/gridopt"
)

// GridSpec is the configuration the aggregator sends to one user group: the
// grid's attributes, its binning, and the frequency-oracle protocol to
// perturb reports with (paper §5: "the aggregator sends to each user one
// grid configuration").
type GridSpec struct {
	// AttrX is the schema index of the grid's (first) attribute.
	AttrX int
	// AttrY is the schema index of the second attribute, or -1 for a 1-D grid.
	AttrY int
	// AxisX and AxisY are the binnings; AxisY is nil for 1-D grids.
	AxisX, AxisY *grid.Axis
	// Proto is the frequency oracle chosen by AFO for this grid.
	Proto fo.Protocol
	// ExpectedErr is the optimizer's minimized expected squared error.
	ExpectedErr float64
}

// Is1D reports whether the spec describes a 1-D grid.
func (s GridSpec) Is1D() bool { return s.AttrY < 0 }

// L returns the report domain size (total number of cells).
func (s GridSpec) L() int {
	if s.Is1D() {
		return s.AxisX.Cells()
	}
	return s.AxisX.Cells() * s.AxisY.Cells()
}

// CellOf projects a full user record onto this grid's report value.
func (s GridSpec) CellOf(record func(attr int) int) int {
	if s.Is1D() {
		return s.AxisX.CellOf(record(s.AttrX))
	}
	return s.AxisX.CellOf(record(s.AttrX))*s.AxisY.Cells() + s.AxisY.CellOf(record(s.AttrY))
}

// String renders e.g. "G(0,3) 12x8 OLH" or "G(2) 25 GRR".
func (s GridSpec) String() string {
	if s.Is1D() {
		return fmt.Sprintf("G(%d) %d %v", s.AttrX, s.AxisX.Cells(), s.Proto)
	}
	return fmt.Sprintf("G(%d,%d) %dx%d %v", s.AttrX, s.AttrY, s.AxisX.Cells(), s.AxisY.Cells(), s.Proto)
}

// BuildPlan computes the full grid plan for a schema under the given options
// and population size: which grids exist, their sizes and their protocols.
// The number of returned specs is the number of user groups m — C(k,2) for
// OUG, k_n + C(k,2) for OHG (§5.2).
func BuildPlan(schema *domain.Schema, n int, opts Options) ([]GridSpec, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if schema.Len() < 2 {
		return nil, fmt.Errorf("core: need at least 2 attributes, got %d", schema.Len())
	}
	if n < 1 {
		return nil, fmt.Errorf("core: need at least 1 user")
	}

	if opts.Longitudinal != nil && opts.ForceProtocol == nil {
		// The two-stage chain is GRR∘GRR; OLH has no memoizable per-round
		// stage, so longitudinal plans force GRR on every grid (withDefaults
		// already refused a conflicting ForceProtocol).
		grr := fo.GRR
		opts.ForceProtocol = &grr
	}
	pairs := schema.Pairs()
	m := len(pairs)
	var oneD []int
	if opts.Strategy == OHG {
		oneD = schema.NumericalIndexes()
		m += len(oneD)
	}
	params := gridopt.Params{Epsilon: opts.Epsilon, N: n, M: m, Mode: opts.Mode}
	r := opts.Selectivity

	specs := make([]GridSpec, 0, m)
	for _, attr := range oneD {
		a := schema.Attr(attr)
		var pl gridopt.Plan
		if opts.ForceProtocol != nil {
			pl = gridopt.ForcedPlan(params, *opts.ForceProtocol, &a, nil, r, 0)
		} else {
			pl = gridopt.Plan1D(params, a, r)
		}
		ax, err := axisFor(a, attr, pl.Lx, opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, GridSpec{
			AttrX: attr, AttrY: -1, AxisX: ax,
			Proto: pl.Proto, ExpectedErr: pl.Err,
		})
	}
	for _, pq := range pairs {
		a, b := schema.Attr(pq[0]), schema.Attr(pq[1])
		var pl gridopt.Plan
		if opts.ForceProtocol != nil {
			pl = gridopt.ForcedPlan(params, *opts.ForceProtocol, &a, &b, r, r)
		} else {
			pl = gridopt.Plan2D(params, a, b, r, r)
		}
		axX, err := axisFor(a, pq[0], pl.Lx, opts)
		if err != nil {
			return nil, err
		}
		axY, err := axisFor(b, pq[1], pl.Ly, opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, GridSpec{
			AttrX: pq[0], AttrY: pq[1], AxisX: axX, AxisY: axY,
			Proto: pl.Proto, ExpectedErr: pl.Err,
		})
	}
	return specs, nil
}

// axisFor builds the axis binning attribute attr with the planned cell
// count: equal-width by default, equi-mass when Options.MarginalHint carries
// an estimated marginal for a numerical attribute (§7 extension).
func axisFor(a domain.Attribute, attr, cells int, opts Options) (*grid.Axis, error) {
	if hint, ok := opts.MarginalHint[attr]; ok && a.IsNumerical() && len(hint) == a.Size && cells < a.Size {
		return grid.NewCustomAxis(a.Size, grid.EquiMassBoundaries(hint, cells))
	}
	return grid.NewAxis(a.Size, cells)
}
