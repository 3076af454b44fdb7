// Package estimate implements FELIP's two estimation engines: the response
// matrix built from related grids by weighted update (paper Algorithm 3) and
// λ-dimensional query estimation from 2-D answers by iterative proportional
// fitting (paper Algorithm 4).
//
// The weighted update runs on the atom grid of its constraints — the blocks
// left by cutting the matrix at every rectangle edge — so a fit costs one
// pass over the d_i·d_j entries plus O(atoms) per sweep, not O(d_i·d_j) per
// sweep.
package estimate

import (
	"fmt"
	"math"

	"felip/internal/grid"
)

// Rect is a half-open rectangle [XLo,XHi)×[YLo,YHi) of per-value matrix
// entries — the set δ(c) of 2-D values contributing to one grid cell.
type Rect struct {
	XLo, XHi, YLo, YHi int
}

// Area returns the number of matrix entries inside the rectangle.
func (r Rect) Area() int { return (r.XHi - r.XLo) * (r.YHi - r.YLo) }

// Constraint binds a rectangle of matrix entries to an estimated frequency:
// after convergence the entries in R sum (approximately) to Target.
type Constraint struct {
	R      Rect
	Target float64
}

// GridConstraints assembles the Algorithm-3 constraint set of one attribute
// pair: every cell of the 2-D grid g2 binds its value rectangle δ(c) to the
// cell's estimated frequency, then each related 1-D grid (Γ from §5.5) adds
// one band constraint per cell — gx on g2's X attribute, gy on its Y
// attribute; either may be nil. The order is fixed (2-D cells row-major, then
// the X-side bands, then the Y-side bands), so every consumer fits
// bit-identical matrices.
func GridConstraints(g2 *grid.Grid2D, gx, gy *grid.Grid1D) []Constraint {
	dx, dy := g2.X.Domain(), g2.Y.Domain()
	var cons []Constraint
	lx, ly := g2.X.Cells(), g2.Y.Cells()
	for cx := 0; cx < lx; cx++ {
		xLo, xHi := g2.X.CellRange(cx)
		for cy := 0; cy < ly; cy++ {
			yLo, yHi := g2.Y.CellRange(cy)
			cons = append(cons, Constraint{
				R:      Rect{XLo: xLo, XHi: xHi, YLo: yLo, YHi: yHi},
				Target: g2.At(cx, cy),
			})
		}
	}
	if gx != nil {
		for c := 0; c < gx.L(); c++ {
			lo, hi := gx.Axis.CellRange(c)
			cons = append(cons, Constraint{R: Rect{XLo: lo, XHi: hi, YLo: 0, YHi: dy}, Target: gx.Freq[c]})
		}
	}
	if gy != nil {
		for c := 0; c < gy.L(); c++ {
			lo, hi := gy.Axis.CellRange(c)
			cons = append(cons, Constraint{R: Rect{XLo: 0, XHi: dx, YLo: lo, YHi: hi}, Target: gy.Freq[c]})
		}
	}
	return cons
}

// Matrix is a dense row-major dx×dy response matrix of per-value frequency
// estimates for one attribute pair.
type Matrix struct {
	Dx, Dy int
	Vals   []float64
}

// NewMatrix allocates a dx×dy matrix initialized uniformly to 1/(dx·dy)
// (Algorithm 3 line 1).
func NewMatrix(dx, dy int) (*Matrix, error) {
	if dx < 1 || dy < 1 {
		return nil, fmt.Errorf("estimate: matrix dims %dx%d invalid", dx, dy)
	}
	m := &Matrix{Dx: dx, Dy: dy, Vals: make([]float64, dx*dy)}
	u := 1 / float64(dx*dy)
	for i := range m.Vals {
		m.Vals[i] = u
	}
	return m, nil
}

// At returns entry (x, y).
func (m *Matrix) At(x, y int) float64 { return m.Vals[x*m.Dy+y] }

// RectSum returns the total mass inside r.
func (m *Matrix) RectSum(r Rect) float64 {
	var s float64
	for x := r.XLo; x < r.XHi; x++ {
		row := m.Vals[x*m.Dy : (x+1)*m.Dy]
		for y := r.YLo; y < r.YHi; y++ {
			s += row[y]
		}
	}
	return s
}

// MaskSum returns the total mass of entries (x, y) with selX[x] && selY[y] —
// the response-matrix answer to a 2-D query with arbitrary predicates.
func (m *Matrix) MaskSum(selX, selY []bool) float64 {
	var s float64
	for x := 0; x < m.Dx; x++ {
		if !selX[x] {
			continue
		}
		row := m.Vals[x*m.Dy : (x+1)*m.Dy]
		for y := 0; y < m.Dy; y++ {
			if selY[y] {
				s += row[y]
			}
		}
	}
	return s
}

// Sum returns the total mass of the matrix.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Vals {
		s += v
	}
	return s
}

// Fit runs Algorithm 3's weighted update: for every constraint, the entries
// of its rectangle are rescaled so their sum matches the constraint's target,
// sweeping until the total absolute change of a sweep drops below threshold
// (the paper recommends threshold < 1/n) or maxIter sweeps elapse.
//
// Constraints with non-positive targets zero out their rectangle; rectangles
// that currently hold zero mass are skipped (Algorithm 3 line 8). Entries
// must be non-negative, as NewMatrix and Fit itself keep them.
//
// The sweeps run on atoms, not entries. Cutting the rows at every
// constraint's X edges and the columns at every Y edge splits the matrix into
// blocks that lie wholly inside or wholly outside each rectangle, so every
// rescale multiplies all entries of a block by the same factor. Fit keeps one
// mass and one cumulative factor per block and multiplies each entry by its
// block's factor once at the end: O(dx·dy + atoms·iter) instead of
// O(dx·dy·iter), and equal to the entry-wise update in exact arithmetic.
func (m *Matrix) Fit(cons []Constraint, threshold float64, maxIter int) {
	m.fit(cons, threshold, maxIter)
}

// atomRect is a constraint rectangle in atom coordinates: atom rows
// [bx0,bx1) × atom columns [by0,by1).
type atomRect struct {
	bx0, bx1, by0, by1 int
	target             float64
}

// fit is Fit; it returns the number of sweeps run.
func (m *Matrix) fit(cons []Constraint, threshold float64, maxIter int) int {
	if maxIter < 1 {
		maxIter = 1
	}
	xBand, xCuts := atomBands(m.Dx, cons, func(r Rect) (int, int) { return r.XLo, r.XHi })
	yBand, yCuts := atomBands(m.Dy, cons, func(r Rect) (int, int) { return r.YLo, r.YHi })
	nx, ny := len(xCuts)-1, len(yCuts)-1

	// An empty rectangle covers no atoms, so like any massless rectangle it
	// is skipped on every sweep.
	rects := make([]atomRect, len(cons))
	for k, c := range cons {
		rects[k] = atomRect{
			bx0: xBand[c.R.XLo], bx1: xBand[c.R.XHi],
			by0: yBand[c.R.YLo], by1: yBand[c.R.YHi],
			target: math.Max(c.Target, 0),
		}
	}

	mass := make([]float64, nx*ny)
	for x := 0; x < m.Dx; x++ {
		row := m.Vals[x*m.Dy : (x+1)*m.Dy]
		atoms := mass[xBand[x]*ny : (xBand[x]+1)*ny]
		for by := range atoms {
			var s float64
			for _, v := range row[yCuts[by]:yCuts[by+1]] {
				s += v
			}
			atoms[by] += s
		}
	}
	factor := make([]float64, nx*ny)
	for k := range factor {
		factor[k] = 1
	}

	sweeps := maxIter
	for iter := 0; iter < maxIter; iter++ {
		var change float64
		for _, r := range rects {
			var s float64
			for bx := r.bx0; bx < r.bx1; bx++ {
				for _, v := range mass[bx*ny+r.by0 : bx*ny+r.by1] {
					s += v
				}
			}
			if s == 0 {
				continue
			}
			f := r.target / s
			for bx := r.bx0; bx < r.bx1; bx++ {
				lo, hi := bx*ny+r.by0, bx*ny+r.by1
				ms, fs := mass[lo:hi], factor[lo:hi]
				for k, old := range ms {
					ms[k] = old * f
					fs[k] *= f
					change += math.Abs(ms[k] - old)
				}
			}
		}
		if change < threshold {
			sweeps = iter + 1
			break
		}
	}

	for x := 0; x < m.Dx; x++ {
		row := m.Vals[x*m.Dy : (x+1)*m.Dy]
		fs := factor[xBand[x]*ny : (xBand[x]+1)*ny]
		for by, f := range fs {
			for y := yCuts[by]; y < yCuts[by+1]; y++ {
				row[y] *= f
			}
		}
	}
	return sweeps
}

// atomBands cuts [0, d) at 0, d and both edges of every rectangle on one
// axis. It returns the cut positions in ascending order and, for each
// position p in [0, d], the index of the atom band containing p (for a cut,
// the band starting there; for p = d, the band count).
func atomBands(d int, cons []Constraint, edges func(Rect) (lo, hi int)) (band, cuts []int) {
	isCut := make([]bool, d+1)
	isCut[0], isCut[d] = true, true
	for _, c := range cons {
		lo, hi := edges(c.R)
		isCut[lo], isCut[hi] = true, true
	}
	band = make([]int, d+1)
	for p := 0; p <= d; p++ {
		if isCut[p] {
			cuts = append(cuts, p)
		}
		band[p] = len(cuts) - 1
	}
	return band, cuts
}
