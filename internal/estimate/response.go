// Package estimate implements FELIP's two estimation engines: the response
// matrix built from related grids by weighted update (paper Algorithm 3) and
// λ-dimensional query estimation from 2-D answers by iterative proportional
// fitting (paper Algorithm 4).
//
// The weighted update runs in product form: on FELIP's constraints every
// fitted entry is one factor of its 2-D cell times one factor of each of its
// 1-D bands, so a sweep costs O(cells + bands), not O(d_i·d_j). Queries are
// answered from the same factors (Product.Quadrants): a pair's four quadrant
// masses cost O(segments + spans) per axis plus O(cells), and no per-value
// matrix or table is built.
package estimate

import (
	"fmt"
	"math"

	"felip/internal/grid"
)

// Product is one attribute pair's response matrix in the form Algorithm 3
// leaves it on FELIP's constraints: entry (x, y) is
// cell[cx·ly+cy]·xf[bx]·yf[by], where (cx, cy) is the 2-D cell holding the
// entry, bx its band in the X attribute's 1-D grid and by its band in the Y
// attribute's. A pair without one of the 1-D grids has a single band of
// factor 1 on that axis.
type Product struct {
	dx, dy, ly int
	// xs and ys cut each axis into runs of values that share a 2-D cell and
	// a band.
	xs, ys []segment
	cell   []float64
	xf, yf []float64
	// sweeps is the number of sweeps the fit ran.
	sweeps int
}

// segment is the run [lo, hi) of one axis's values lying in one 2-D cell and
// one band.
type segment struct {
	lo, hi, cell, band int
}

// segments cuts an axis at the edges of both its 2-D cells and the cells of
// its 1-D grid, the bands (nil: one band over the whole domain): at most
// cells + bands runs.
func segments(cells *grid.Axis, bands *grid.Grid1D) []segment {
	d := cells.Domain()
	var segs []segment
	c, b := 0, 0
	for lo := 0; lo < d; {
		_, cHi := cells.CellRange(c)
		bHi := d
		if bands != nil {
			_, bHi = bands.Axis.CellRange(b)
		}
		hi := min(cHi, bHi)
		segs = append(segs, segment{lo: lo, hi: hi, cell: c, band: b})
		if hi == cHi {
			c++
		}
		if hi == bHi {
			b++
		}
		lo = hi
	}
	return segs
}

// newProduct lays out the factors of a pair with 2-D grid g2 and 1-D grids
// gx and gy (either may be nil), with every band factor at 1.
func newProduct(g2 *grid.Grid2D, gx, gy *grid.Grid1D) *Product {
	p := &Product{
		dx: g2.X.Domain(), dy: g2.Y.Domain(), ly: g2.Y.Cells(),
		xs: segments(g2.X, gx), ys: segments(g2.Y, gy),
		cell: make([]float64, g2.L()),
	}
	p.xf = ones(p.xs[len(p.xs)-1].band + 1)
	p.yf = ones(p.ys[len(p.ys)-1].band + 1)
	return p
}

// ones returns n factors of 1.
func ones(n int) []float64 {
	f := make([]float64, n)
	for k := range f {
		f[k] = 1
	}
	return f
}

// ExpandGrid is the uniform per-value expansion of a 2-D grid: value (v, w)
// carries freq(cell)/(wx·wy), so its Quadrants equal Grid2D.Mass of the same
// selections. It is the surface of a pair that no 1-D grid refines, and
// involves no fit.
func ExpandGrid(g2 *grid.Grid2D) *Product {
	p := newProduct(g2, nil, nil)
	for cx := 0; cx < g2.X.Cells(); cx++ {
		for cy := 0; cy < p.ly; cy++ {
			p.cell[cx*p.ly+cy] = g2.At(cx, cy) / float64(g2.X.Width(cx)*g2.Y.Width(cy))
		}
	}
	return p
}

// MatrixMaxIter caps the weighted-update sweeps of every response-matrix fit
// (Algorithm 3) a round's answers run.
const MatrixMaxIter = 50

// FitProduct runs Algorithm 3's weighted update for one attribute pair. The
// matrix starts uniform at 1/(dx·dy) (line 1). Each sweep rescales every cell
// of the 2-D grid g2 (row-major), then every band of gx, the 1-D grid on g2's
// X attribute, then every band of gy, on its Y attribute — either may be nil;
// each spans its axis's domain — so that the rectangle's entries sum to its
// estimated frequency. It stops once a sweep's total absolute change drops
// below threshold (the paper recommends threshold < 1/n) or after maxIter
// sweeps. A rectangle with a non-positive target is zeroed; one that holds no
// mass is skipped (line 8).
//
// Each rescale multiplies a whole cell or band by one factor, and every entry
// lies in exactly one cell and at most one band per 1-D grid, so the fit
// keeps one factor per cell and per band. The rectangles of one family are
// disjoint, so each family's masses are taken from sums at its start, over
// the runs where an axis's cell and band edges interleave. Entries are
// non-negative, so a rescale's entry-wise change Σ|v·f − v| is |t − s|. The
// fit thus runs the sweeps of the entry-wise update and matches it entry for
// entry up to rounding, at O(cells + bands) per sweep.
func FitProduct(g2 *grid.Grid2D, gx, gy *grid.Grid1D, threshold float64, maxIter int) *Product {
	p := newProduct(g2, gx, gy)
	lx, ly := g2.X.Cells(), p.ly
	u := 1 / float64(p.dx*p.dy)
	for k := range p.cell {
		p.cell[k] = u
	}

	// rowMass[cx] = Σ_{x∈cx} xf[band(x)], colMass likewise: a cell's mass is
	// its factor times both. perValue[c] is the mass of one row (or column)
	// of values in cell c per unit band factor.
	rowMass, colMass := make([]float64, lx), make([]float64, ly)
	perValue := make([]float64, max(lx, ly))
	bandMass := make([]float64, max(len(p.xf), len(p.yf)))
	maxIter = max(maxIter, 1)
	p.sweeps = maxIter
	for iter := 0; iter < maxIter; iter++ {
		var change float64
		cellSums(p.xs, p.xf, rowMass)
		cellSums(p.ys, p.yf, colMass)
		for cx := 0; cx < lx; cx++ {
			row := p.cell[cx*ly : (cx+1)*ly]
			for cy := range row {
				change += rescale(&row[cy], row[cy]*rowMass[cx]*colMass[cy], g2.Freq[cx*ly+cy])
			}
		}
		if gx != nil {
			for cx := 0; cx < lx; cx++ {
				var m float64
				for cy, c := range p.cell[cx*ly : (cx+1)*ly] {
					m += c * colMass[cy]
				}
				perValue[cx] = m
			}
			change += fitBands(p.xs, perValue, bandMass, p.xf, gx.Freq)
		}
		if gy != nil {
			cellSums(p.xs, p.xf, rowMass)
			for cy := 0; cy < ly; cy++ {
				var m float64
				for cx := 0; cx < lx; cx++ {
					m += p.cell[cx*ly+cy] * rowMass[cx]
				}
				perValue[cy] = m
			}
			change += fitBands(p.ys, perValue, bandMass, p.yf, gy.Freq)
		}
		if change < threshold {
			p.sweeps = iter + 1
			break
		}
	}
	return p
}

// rescale multiplies the factor f of a rectangle holding mass s so that it
// holds max(target, 0) instead, and returns the entry-wise change. A
// massless rectangle is skipped.
func rescale(f *float64, s, target float64) float64 {
	if s == 0 {
		return 0
	}
	t := math.Max(target, 0)
	*f *= t / s
	return math.Abs(t - s)
}

// cellSums sets out[c] to the sum of the band factors over the values of
// cell c on one axis.
func cellSums(segs []segment, factors, out []float64) {
	clear(out)
	for _, s := range segs {
		out[s.cell] += float64(s.hi-s.lo) * factors[s.band]
	}
}

// fitBands rescales every band of one axis's 1-D grid to its target, given
// the mass of one value of each 2-D cell per unit band factor, and returns
// the change. bandMass is scratch of at least one slot per band.
func fitBands(segs []segment, perValue, bandMass, factors, targets []float64) float64 {
	bandMass = bandMass[:len(factors)]
	clear(bandMass)
	for _, s := range segs {
		bandMass[s.band] += float64(s.hi-s.lo) * perValue[s.cell]
	}
	var change float64
	for b := range factors {
		change += rescale(&factors[b], factors[b]*bandMass[b], targets[b])
	}
	return change
}

// Quadrants returns the matrix's masses on the four sign combinations of an
// associated 2-D query: PP on selX × selY, PN on selX and the complement of
// selY, NP on the complement of selX and selY, and NN on both complements.
// Both span lists must be ascending and disjoint. An entry is cell·xf·yf, so
// each mass is the bilinear form Σ cell[cx,cy]·wx[cx]·wy[cy] over the 2-D
// cells, where wx[cx] is the sum of the X band factors over the values of
// cell cx inside (or outside) selX, and wy likewise. One walk over each
// axis's segments and spans yields both weights, O(segments + spans), and
// one pass over the cells all four forms, O(cells).
func (p *Product) Quadrants(selX, selY []Span) PairAnswer {
	lx, ly := len(p.cell)/p.ly, p.ly
	// The weights of up to 64 cells over both axes stay on the stack, so a
	// pair answer allocates nothing.
	var buf [128]float64
	w := buf[:]
	if n := 2 * (lx + ly); n > len(w) {
		w = make([]float64, n)
	}
	sx, nx := w[:lx], w[lx:2*lx]
	sy, ny := w[2*lx:2*lx+ly], w[2*lx+ly:2*(lx+ly)]
	splitWeights(p.xs, p.xf, selX, sx, nx)
	splitWeights(p.ys, p.yf, selY, sy, ny)
	var a PairAnswer
	for cx := 0; cx < lx; cx++ {
		var rowSel, rowNot float64
		for cy, c := range p.cell[cx*ly : (cx+1)*ly] {
			rowSel += c * sy[cy]
			rowNot += c * ny[cy]
		}
		a.PP += sx[cx] * rowSel
		a.PN += sx[cx] * rowNot
		a.NP += nx[cx] * rowSel
		a.NN += nx[cx] * rowNot
	}
	return a
}

// splitWeights adds to in[c] and out[c] the band factors of the values of
// cell c inside and outside the ascending, disjoint spans: each segment adds
// its factor times the number of its values the spans cover to one, and
// times the rest to the other.
func splitWeights(segs []segment, factors []float64, spans []Span, in, out []float64) {
	k := 0
	for _, s := range segs {
		for k < len(spans) && spans[k].Hi <= s.lo {
			k++
		}
		covered := 0
		for j := k; j < len(spans) && spans[j].Lo < s.hi; j++ {
			covered += min(spans[j].Hi, s.hi) - max(spans[j].Lo, s.lo)
		}
		f := factors[s.band]
		in[s.cell] += float64(covered) * f
		out[s.cell] += float64(s.hi-s.lo-covered) * f
	}
}

// Matrix materialises the dense matrix.
func (p *Product) Matrix() *Matrix {
	m := &Matrix{Dx: p.dx, Dy: p.dy, Vals: make([]float64, p.dx*p.dy)}
	for _, sx := range p.xs {
		cells, xf := p.cell[sx.cell*p.ly:(sx.cell+1)*p.ly], p.xf[sx.band]
		for x := sx.lo; x < sx.hi; x++ {
			row := m.Vals[x*p.dy : (x+1)*p.dy]
			for _, sy := range p.ys {
				v := cells[sy.cell] * xf * p.yf[sy.band]
				for y := sy.lo; y < sy.hi; y++ {
					row[y] = v
				}
			}
		}
	}
	return m
}

// Matrix is a dense row-major dx×dy response matrix of per-value frequency
// estimates for one attribute pair: what the HDG baseline answers from
// (Product.Matrix), and what the entry-wise reference fits in the tests of
// this package and of serve rescale.
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

// GridConstraints lists, as rectangles in FitProduct's order, the
// constraints FitProduct fits for the 2-D grid g2 and the 1-D grids gx and gy
// (either may be nil): g2's cells row-major, then gx's bands, then gy's. No
// serving path fits from it; it is the input of the entry-wise reference
// fits that the tests of this package and of serve check FitProduct against.
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
