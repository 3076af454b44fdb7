package postproc

import "felip/internal/grid"

// View describes how one estimated grid relates to a single attribute a: the
// axis that bins a in that grid, the grid's (shared, mutable) frequency
// vector, the flat indices forming each a-column, and the grid's per-cell
// noise variance.
//
// For a 1-D grid over a, Cols[c] = {c}. For a 2-D grid with a on the x axis
// of size lx×ly, Cols[cx] = {cx·ly + cy : cy ∈ [0,ly)}; symmetrically for the
// y axis.
type View struct {
	// Axis is the binning of attribute a inside this grid.
	Axis *grid.Axis
	// Freq is the grid's frequency vector, adjusted in place.
	Freq []float64
	// Cols lists, per axis cell, the flat Freq indices of that a-column.
	Cols [][]int
	// Var0 is the grid's per-cell estimation variance, used for weighting.
	Var0 float64
}

// colMass returns the total frequency mass of axis cell c.
func (v *View) colMass(c int) float64 {
	var s float64
	for _, idx := range v.Cols[c] {
		s += v.Freq[idx]
	}
	return s
}

// intervalEstimate returns this view's estimate of the attribute-mass on the
// half-open value interval [lo, hi) and the noise variance of that estimate,
// summing whole column masses exactly as Algorithm 2's S_{G(a,w)}(i). A view
// can only estimate an interval that aligns with its own cell boundaries
// (every cell fully inside or fully outside); for non-aligned intervals
// ok = false and the view is excluded from that consensus — the
// generalization that keeps Algorithm 2 sound when FELIP's per-grid sizes
// produce non-nesting partitions (DESIGN.md §7): a partially-overlapping
// cell would need the uniformity assumption and its bias would flatten
// peaked distributions. Only the cells from the one holding lo up to the
// last starting before hi are visited, in ascending order.
func (v *View) intervalEstimate(lo, hi int) (mass, variance float64, ok bool) {
	for c := v.Axis.CellOf(lo); c < len(v.Cols); c++ {
		cLo, cHi := v.Axis.CellRange(c)
		if cLo >= hi {
			break
		}
		if cLo < lo || cHi > hi {
			return 0, 0, false // partial overlap: not aligned
		}
		mass += v.colMass(c)
		variance += float64(len(v.Cols[c])) * v.Var0
	}
	return mass, variance, true
}

// retargetInterval additively adjusts the view's cells inside the interval
// [lo, hi) so their total mass equals target, spreading the correction
// equally over the flat cells — Algorithm 2's update step. The interval must
// align with the view's cells (intervalEstimate's ok), so the cells it
// covers are those holding lo through hi−1.
func (v *View) retargetInterval(lo, hi int, target float64) {
	first, last := v.Axis.CellOf(lo), v.Axis.CellOf(hi-1)
	var mass float64
	var flat int
	for c := first; c <= last; c++ {
		mass += v.colMass(c)
		flat += len(v.Cols[c])
	}
	if flat == 0 {
		return
	}
	delta := (target - mass) / float64(flat)
	for c := first; c <= last; c++ {
		for _, idx := range v.Cols[c] {
			v.Freq[idx] += delta
		}
	}
}

// HarmonizeAttribute makes the marginals of all views along one shared
// attribute consistent — the paper's Algorithm 2, generalized to grids whose
// cell boundaries do not necessarily align. Every view's own partition in
// turn provides the consensus intervals D(i): for each interval, every
// *aligned* view j estimates the attribute-mass S_j(i) by summing whole
// columns, the estimates are combined with inverse-variance weights
// θ_j ∝ 1/Var[S_j(i)] (the §5.4 weighting rule, which reduces to
// θ_j ∝ 1/|L_{G(a,w)}(j)| when Var0 is shared), and every aligned view is
// additively re-targeted to the consensus. Views whose cells only partially
// overlap an interval are excluded from that interval's consensus — a
// partial overlap would need the uniformity assumption, whose bias flattens
// peaked distributions (DESIGN.md §7). Updates are applied Gauss-Seidel
// style; the surrounding Pipeline iterates the pass, and when all views
// share identical boundaries the first pass already reproduces Algorithm 2
// verbatim.
func HarmonizeAttribute(views []View) {
	if len(views) < 2 {
		return
	}
	d := views[0].Axis.Domain()
	for i := range views {
		if views[i].Axis.Domain() != d {
			return // inconsistent views; refuse to adjust
		}
	}
	aligned := make([]int, 0, len(views))
	for owner := range views {
		v := &views[owner]
		for c := range v.Cols {
			lo, hi := v.Axis.CellRange(c)
			var num, den float64
			pinned := false
			aligned = aligned[:0]
			for j := range views {
				mass, variance, ok := views[j].intervalEstimate(lo, hi)
				if !ok {
					continue
				}
				aligned = append(aligned, j)
				if pinned {
					continue
				}
				if variance <= 0 {
					// An error-free view pins the consensus.
					num, den = mass, 1
					pinned = true
					continue
				}
				num += mass / variance
				den += 1 / variance
			}
			if len(aligned) < 2 || den <= 0 {
				continue // nothing to reconcile on this interval
			}
			target := num / den
			for _, j := range aligned {
				views[j].retargetInterval(lo, hi, target)
			}
		}
	}
}

// Rounds is the number of consistency ↔ Norm-Sub alternations every FELIP
// and TDG/HDG round runs (§5.4).
const Rounds = 3

// Pipeline runs the paper's full post-processing: `rounds` alternations of
// per-attribute consistency and per-grid Norm-Sub, ending with a final
// Norm-Sub so the output is non-negative (§5.4). attrViews groups the views
// by attribute; freqs lists every grid's frequency vector exactly once.
func Pipeline(attrViews [][]View, freqs [][]float64, rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	for i := range freqs {
		NormSub(freqs[i], 1)
	}
	for r := 0; r < rounds; r++ {
		for _, views := range attrViews {
			HarmonizeAttribute(views)
		}
		for i := range freqs {
			NormSub(freqs[i], 1)
		}
	}
}

// Columns1D builds the trivial column index for a 1-D grid of l cells.
func Columns1D(l int) [][]int {
	cols := make([][]int, l)
	for c := range cols {
		cols[c] = []int{c}
	}
	return cols
}

// ColumnsX builds the column index along the x axis of an lx×ly grid stored
// row-major by x.
func ColumnsX(lx, ly int) [][]int {
	cols := make([][]int, lx)
	for cx := 0; cx < lx; cx++ {
		col := make([]int, ly)
		for cy := 0; cy < ly; cy++ {
			col[cy] = cx*ly + cy
		}
		cols[cx] = col
	}
	return cols
}

// ColumnsY builds the column index along the y axis of an lx×ly grid stored
// row-major by x.
func ColumnsY(lx, ly int) [][]int {
	cols := make([][]int, ly)
	for cy := 0; cy < ly; cy++ {
		col := make([]int, lx)
		for cx := 0; cx < lx; cx++ {
			col[cx] = cx*ly + cy
		}
		cols[cy] = col
	}
	return cols
}
