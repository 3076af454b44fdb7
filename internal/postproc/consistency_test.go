package postproc

import (
	"math"
	"math/rand"
	"testing"

	"felip/internal/grid"
)

func TestColumnsHelpers(t *testing.T) {
	c := Columns1D(3)
	if len(c) != 3 || c[1][0] != 1 {
		t.Errorf("Columns1D = %v", c)
	}
	cx := ColumnsX(2, 3)
	if len(cx) != 2 || len(cx[0]) != 3 || cx[1][2] != 5 {
		t.Errorf("ColumnsX = %v", cx)
	}
	cy := ColumnsY(2, 3)
	if len(cy) != 3 || len(cy[0]) != 2 || cy[2][1] != 5 {
		t.Errorf("ColumnsY = %v", cy)
	}
	// Every flat index appears exactly once per direction.
	seen := map[int]int{}
	for _, col := range cx {
		for _, idx := range col {
			seen[idx]++
		}
	}
	for idx := 0; idx < 6; idx++ {
		if seen[idx] != 1 {
			t.Errorf("ColumnsX covers index %d %d times", idx, seen[idx])
		}
	}
}

// Two 1-D grids with identical axes must end up with identical (weighted
// average) marginals, preserving total mass.
func TestHarmonizeAlignedGrids(t *testing.T) {
	ax := grid.MustAxis(8, 4)
	f1 := []float64{0.4, 0.3, 0.2, 0.1}
	f2 := []float64{0.2, 0.3, 0.3, 0.2}
	views := []View{
		{Axis: ax, Freq: f1, Cols: Columns1D(4), Var0: 1},
		{Axis: ax, Freq: f2, Cols: Columns1D(4), Var0: 1},
	}
	HarmonizeAttribute(views)
	for c := 0; c < 4; c++ {
		if math.Abs(f1[c]-f2[c]) > 1e-9 {
			t.Errorf("cell %d: %v vs %v not consistent", c, f1[c], f2[c])
		}
	}
	// Equal weights: result is the plain average of the originals.
	want := []float64{0.3, 0.3, 0.25, 0.15}
	for c := range want {
		if math.Abs(f1[c]-want[c]) > 1e-9 {
			t.Errorf("cell %d = %v, want %v", c, f1[c], want[c])
		}
	}
	if s := sum(f1); math.Abs(s-1) > 1e-9 {
		t.Errorf("mass not preserved: %v", s)
	}
}

// A low-variance view must dominate the consensus.
func TestHarmonizeWeighting(t *testing.T) {
	ax := grid.MustAxis(4, 2)
	precise := []float64{0.8, 0.2}
	noisy := []float64{0.2, 0.8}
	views := []View{
		{Axis: ax, Freq: precise, Cols: Columns1D(2), Var0: 1e-6},
		{Axis: ax, Freq: noisy, Cols: Columns1D(2), Var0: 1.0},
	}
	HarmonizeAttribute(views)
	if math.Abs(precise[0]-0.8) > 1e-3 {
		t.Errorf("precise view moved too much: %v", precise)
	}
	if math.Abs(noisy[0]-0.8) > 1e-3 {
		t.Errorf("noisy view not pulled to precise consensus: %v", noisy)
	}
}

// Consistency between a 1-D grid and the matching axis of a 2-D grid: the
// 2-D grid's x-marginal must equal the 1-D grid afterwards (aligned axes).
func TestHarmonize1DWith2D(t *testing.T) {
	ax := grid.MustAxis(8, 2)
	f1 := []float64{0.7, 0.3}
	// 2x2 grid, row-major by x: x-marginals are 0.5, 0.5.
	f2 := []float64{0.25, 0.25, 0.25, 0.25}
	views := []View{
		{Axis: ax, Freq: f1, Cols: Columns1D(2), Var0: 1},
		{Axis: ax, Freq: f2, Cols: ColumnsX(2, 2), Var0: 1},
	}
	HarmonizeAttribute(views)
	m0 := f2[0] + f2[1]
	m1 := f2[2] + f2[3]
	if math.Abs(f1[0]-m0) > 1e-9 || math.Abs(f1[1]-m1) > 1e-9 {
		t.Errorf("marginals disagree after harmonize: 1-D %v, 2-D marginal [%v %v]", f1, m0, m1)
	}
	// Mass preserved on both.
	if math.Abs(sum(f1)-1) > 1e-9 || math.Abs(sum(f2)-1) > 1e-9 {
		t.Errorf("mass changed: %v, %v", sum(f1), sum(f2))
	}
	// The correction within a 2-D column is spread equally.
	if math.Abs(f2[0]-f2[1]) > 1e-9 {
		t.Errorf("column correction not uniform: %v", f2)
	}
}

// Non-aligned axes (3 cells vs 2 cells over domain 6, boundaries {0,2,4,6}
// vs {0,3,6} share only the endpoints): no cross-view interval aligns, so
// harmonization must leave both views untouched rather than flatten them
// through the uniformity assumption (DESIGN.md §7).
func TestHarmonizeNonAlignedAxesNoop(t *testing.T) {
	a3 := grid.MustAxis(6, 3)
	a2 := grid.MustAxis(6, 2)
	f3 := []float64{0.5, 0.3, 0.2}
	f2 := []float64{0.3, 0.7}
	views := []View{
		{Axis: a3, Freq: f3, Cols: Columns1D(3), Var0: 1},
		{Axis: a2, Freq: f2, Cols: Columns1D(2), Var0: 1},
	}
	HarmonizeAttribute(views)
	if f3[0] != 0.5 || f3[1] != 0.3 || f3[2] != 0.2 {
		t.Errorf("non-aligned fine view changed: %v", f3)
	}
	if f2[0] != 0.3 || f2[1] != 0.7 {
		t.Errorf("non-aligned coarse view changed: %v", f2)
	}
}

// Nested axes (4 cells vs 2 cells over domain 8): the fine view aligns with
// every coarse interval, so the coarse view is pulled toward the fine view's
// (lower-variance) sums and both end up consistent on coarse intervals.
func TestHarmonizeNestedAxes(t *testing.T) {
	fine := grid.MustAxis(8, 4)   // boundaries 0,2,4,6,8
	coarse := grid.MustAxis(8, 2) // boundaries 0,4,8
	ff := []float64{0.4, 0.3, 0.2, 0.1}
	fc := []float64{0.5, 0.5}
	views := []View{
		{Axis: fine, Freq: ff, Cols: Columns1D(4), Var0: 1},
		{Axis: coarse, Freq: fc, Cols: Columns1D(2), Var0: 1},
	}
	HarmonizeAttribute(views)
	// Coarse interval [0,4): fine says 0.7 (var 2·1), coarse says 0.5 (var 1).
	// Inverse-variance consensus: (0.7/2 + 0.5/1)/(1/2+1/1) = 0.85/1.5.
	want := 0.85 / 1.5
	if math.Abs(fc[0]-want) > 1e-9 {
		t.Errorf("coarse cell 0 = %v, want %v", fc[0], want)
	}
	if math.Abs((ff[0]+ff[1])-want) > 1e-9 {
		t.Errorf("fine first-half mass = %v, want %v", ff[0]+ff[1], want)
	}
	if math.Abs(sum(ff)-1) > 1e-9 || math.Abs(sum(fc)-1) > 1e-9 {
		t.Errorf("mass not preserved: %v / %v", sum(ff), sum(fc))
	}
}

func TestHarmonizeSingleViewNoop(t *testing.T) {
	f := []float64{0.5, 0.5}
	HarmonizeAttribute([]View{{Axis: grid.MustAxis(4, 2), Freq: f, Cols: Columns1D(2), Var0: 1}})
	if f[0] != 0.5 || f[1] != 0.5 {
		t.Errorf("single view changed: %v", f)
	}
}

func TestHarmonizeMismatchedDomains(t *testing.T) {
	f1 := []float64{0.5, 0.5}
	f2 := []float64{0.5, 0.5}
	HarmonizeAttribute([]View{
		{Axis: grid.MustAxis(4, 2), Freq: f1, Cols: Columns1D(2), Var0: 1},
		{Axis: grid.MustAxis(6, 2), Freq: f2, Cols: Columns1D(2), Var0: 1},
	})
	if f1[0] != 0.5 || f2[0] != 0.5 {
		t.Error("mismatched-domain views should be left untouched")
	}
}

func TestPipelineEndsNonNegative(t *testing.T) {
	ax := grid.MustAxis(8, 2)
	f1 := []float64{1.4, -0.4}
	f2 := []float64{-0.2, 0.5, 0.4, 0.3}
	attrViews := [][]View{{
		{Axis: ax, Freq: f1, Cols: Columns1D(2), Var0: 1},
		{Axis: ax, Freq: f2, Cols: ColumnsX(2, 2), Var0: 1},
	}}
	Pipeline(attrViews, [][]float64{f1, f2}, 3)
	for _, f := range [][]float64{f1, f2} {
		if math.Abs(sum(f)-1) > 1e-6 {
			t.Errorf("grid sum = %v, want 1", sum(f))
		}
		for i, x := range f {
			if x < 0 {
				t.Errorf("negative estimate survived pipeline: f[%d]=%v", i, x)
			}
		}
	}
}

func TestPipelineZeroRoundsClamped(t *testing.T) {
	f := []float64{-1, 2}
	Pipeline(nil, [][]float64{f}, 0)
	if f[0] < 0 || math.Abs(sum(f)-1) > 1e-9 {
		t.Errorf("rounds=0 should still normalize: %v", f)
	}
}

// intervalEstimateFullScan is intervalEstimate scanning every cell of the
// view: the reference for the covered-cells walk.
func (v *View) intervalEstimateFullScan(lo, hi int) (mass, variance float64, ok bool) {
	for c := range v.Cols {
		cLo, cHi := v.Axis.CellRange(c)
		if cHi <= lo || cLo >= hi {
			continue
		}
		if cLo < lo || cHi > hi {
			return 0, 0, false
		}
		mass += v.colMass(c)
		variance += float64(len(v.Cols[c])) * v.Var0
	}
	return mass, variance, true
}

// retargetIntervalFullScan is retargetInterval scanning every cell of the
// view.
func (v *View) retargetIntervalFullScan(lo, hi int, target float64) {
	var mass float64
	var flat int
	for c := range v.Cols {
		cLo, cHi := v.Axis.CellRange(c)
		if cLo >= lo && cHi <= hi {
			mass += v.colMass(c)
			flat += len(v.Cols[c])
		}
	}
	if flat == 0 {
		return
	}
	delta := (target - mass) / float64(flat)
	for c := range v.Cols {
		cLo, cHi := v.Axis.CellRange(c)
		if cLo >= lo && cHi <= hi {
			for _, idx := range v.Cols[c] {
				v.Freq[idx] += delta
			}
		}
	}
}

// pipelineFullScan is Pipeline with HarmonizeAttribute's consensus loop
// over the full-scan references.
func pipelineFullScan(attrViews [][]View, freqs [][]float64, rounds int) {
	for i := range freqs {
		NormSub(freqs[i], 1)
	}
	for r := 0; r < max(rounds, 1); r++ {
		for _, views := range attrViews {
			d := views[0].Axis.Domain()
			consistent := len(views) > 1
			for i := range views {
				consistent = consistent && views[i].Axis.Domain() == d
			}
			if !consistent {
				continue
			}
			var aligned []int
			for owner := range views {
				for c := range views[owner].Cols {
					lo, hi := views[owner].Axis.CellRange(c)
					var num, den float64
					pinned := false
					aligned = aligned[:0]
					for j := range views {
						mass, variance, ok := views[j].intervalEstimateFullScan(lo, hi)
						if !ok {
							continue
						}
						aligned = append(aligned, j)
						if pinned {
							continue
						}
						if variance <= 0 {
							num, den = mass, 1
							pinned = true
							continue
						}
						num += mass / variance
						den += 1 / variance
					}
					if len(aligned) < 2 || den <= 0 {
						continue
					}
					for _, j := range aligned {
						views[j].retargetIntervalFullScan(lo, hi, num/den)
					}
				}
			}
		}
		for i := range freqs {
			NormSub(freqs[i], 1)
		}
	}
}

// randomConsistencyCase builds the views of two attributes a and b, with
// domains of 1–300: 1–6 grids over a, each a 1-D grid or a 2-D grid over
// (a, b), and optionally a 1-D grid over b. An axis repeats a shared
// partition (aligned), keeps a random subset of its boundaries (nested) or
// is cut independently, equal-width or at random points (non-aligned).
// Targets are noisy, some negative; a few grids are error-free.
func randomConsistencyCase(rng *rand.Rand) (attrViews [][]View, freqs [][]float64) {
	da, db := 1+rng.Intn(300), 1+rng.Intn(300)
	partition := func(d int) []int {
		bounds := []int{0}
		for p := 1; p < d; p++ {
			if rng.Intn(1+rng.Intn(8)) == 0 {
				bounds = append(bounds, p)
			}
		}
		return append(bounds, d)
	}
	sharedA, sharedB := partition(da), partition(db)
	axis := func(d int, shared []int) *grid.Axis {
		var bounds []int
		switch rng.Intn(4) {
		case 0:
			bounds = shared
		case 1:
			bounds = []int{0}
			for _, b := range shared[1 : len(shared)-1] {
				if rng.Intn(2) == 0 {
					bounds = append(bounds, b)
				}
			}
			bounds = append(bounds, d)
		case 2:
			return grid.MustAxis(d, 1+rng.Intn(min(d, 40)))
		default:
			bounds = partition(d)
		}
		a, err := grid.NewCustomAxis(d, bounds)
		if err != nil {
			panic(err)
		}
		return a
	}
	draw := func(cells int) ([]float64, float64) {
		f := make([]float64, cells)
		for k := range f {
			f[k] = (rng.Float64() - 0.2) * 2 / float64(cells)
		}
		if rng.Intn(10) == 0 {
			return f, 0
		}
		return f, rng.Float64() / float64(cells)
	}
	var viewsA, viewsB []View
	for n := 1 + rng.Intn(6); n > 0; n-- {
		ax := axis(da, sharedA)
		if rng.Intn(2) == 0 {
			f, v0 := draw(ax.Cells())
			viewsA = append(viewsA, View{Axis: ax, Freq: f, Cols: Columns1D(ax.Cells()), Var0: v0})
			freqs = append(freqs, f)
			continue
		}
		by := axis(db, sharedB)
		f, v0 := draw(ax.Cells() * by.Cells())
		viewsA = append(viewsA, View{Axis: ax, Freq: f, Cols: ColumnsX(ax.Cells(), by.Cells()), Var0: v0})
		viewsB = append(viewsB, View{Axis: by, Freq: f, Cols: ColumnsY(ax.Cells(), by.Cells()), Var0: v0})
		freqs = append(freqs, f)
	}
	if rng.Intn(2) == 0 {
		by := axis(db, sharedB)
		f, v0 := draw(by.Cells())
		viewsB = append(viewsB, View{Axis: by, Freq: f, Cols: Columns1D(by.Cells()), Var0: v0})
		freqs = append(freqs, f)
	}
	attrViews = append(attrViews, viewsA)
	if len(viewsB) > 1 {
		attrViews = append(attrViews, viewsB)
	}
	return attrViews, freqs
}

// cloneCase deep-copies a case's frequency vectors, rebinding its views.
func cloneCase(attrViews [][]View, freqs [][]float64) ([][]View, [][]float64) {
	copies := make(map[*float64][]float64, len(freqs))
	out := make([][]float64, len(freqs))
	for i, f := range freqs {
		out[i] = append([]float64(nil), f...)
		copies[&f[0]] = out[i]
	}
	views := make([][]View, len(attrViews))
	for a, vs := range attrViews {
		for _, v := range vs {
			v.Freq = copies[&v.Freq[0]]
			views[a] = append(views[a], v)
		}
	}
	return views, out
}

// Visiting only the cells an interval covers must leave Pipeline's output
// bit-identical to the full scan: the same columns are added in the same
// order, on aligned, nested and non-aligned axes, over 1–3 rounds.
func TestPipelineMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		attrViews, freqs := randomConsistencyCase(rng)
		refViews, refFreqs := cloneCase(attrViews, freqs)
		rounds := 1 + rng.Intn(3)
		Pipeline(attrViews, freqs, rounds)
		pipelineFullScan(refViews, refFreqs, rounds)
		for i := range freqs {
			for k := range freqs[i] {
				if freqs[i][k] != refFreqs[i][k] {
					t.Fatalf("trial %d: grid %d cell %d = %v, full scan %v", trial, i, k, freqs[i][k], refFreqs[i][k])
				}
			}
		}
	}
}
