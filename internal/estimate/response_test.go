package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"felip/internal/grid"
)

func TestNewMatrix(t *testing.T) {
	m, err := NewMatrix(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dx != 4 || m.Dy != 5 || len(m.Vals) != 20 {
		t.Fatalf("matrix %+v", m)
	}
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Errorf("initial sum = %v", m.Sum())
	}
	if math.Abs(m.At(2, 3)-0.05) > 1e-12 {
		t.Errorf("initial entry = %v, want 0.05", m.At(2, 3))
	}
	if _, err := NewMatrix(0, 3); err == nil {
		t.Error("0 dim accepted")
	}
	if _, err := NewMatrix(3, -1); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestRectSumAndArea(t *testing.T) {
	m, _ := NewMatrix(4, 4)
	r := Rect{XLo: 1, XHi: 3, YLo: 0, YHi: 2}
	if r.Area() != 4 {
		t.Errorf("Area = %d", r.Area())
	}
	if got := m.RectSum(r); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("RectSum = %v, want 0.25", got)
	}
	full := Rect{0, 4, 0, 4}
	if got := m.RectSum(full); math.Abs(got-1) > 1e-12 {
		t.Errorf("full RectSum = %v", got)
	}
}

// grid2 builds a 2-D grid over equal-width axes with the given row-major
// cell frequencies.
func grid2(dx, lx, dy, ly int, freq ...float64) *grid.Grid2D {
	g := grid.NewGrid2D(0, 1, grid.MustAxis(dx, lx), grid.MustAxis(dy, ly))
	if err := g.SetFreq(freq); err != nil {
		panic(err)
	}
	return g
}

// grid1 builds a 1-D grid over an equal-width axis with the given cell
// frequencies.
func grid1(d, l int, freq ...float64) *grid.Grid1D {
	g := grid.NewGrid1D(0, grid.MustAxis(d, l))
	if err := g.SetFreq(freq); err != nil {
		panic(err)
	}
	return g
}

func TestFitSingleConstraint(t *testing.T) {
	m := FitProduct(grid2(4, 1, 4, 1, 1), grid1(4, 2, 0.8, 0.2), nil, 1e-9, 100).Matrix()
	if got := m.RectSum(Rect{0, 2, 0, 4}); math.Abs(got-0.8) > 1e-6 {
		t.Errorf("region mass = %v, want 0.8", got)
	}
	if got := m.RectSum(Rect{2, 4, 0, 4}); math.Abs(got-0.2) > 1e-6 {
		t.Errorf("region mass = %v, want 0.2", got)
	}
	if math.Abs(m.Sum()-1) > 1e-6 {
		t.Errorf("total mass = %v", m.Sum())
	}
}

// A consistent set of 1-D and 2-D constraints (exact marginals of a known
// joint) must reconstruct the joint's rectangle masses well.
func TestFitReconstructsJoint(t *testing.T) {
	// True joint over 4x4: concentrated diagonal.
	truth := [][]float64{
		{0.20, 0.02, 0.01, 0.01},
		{0.02, 0.20, 0.02, 0.01},
		{0.01, 0.02, 0.20, 0.02},
		{0.01, 0.01, 0.02, 0.22},
	}
	// 2-D grid: 2x2 cells of 2x2 values.
	var cells []float64
	for cx := 0; cx < 2; cx++ {
		for cy := 0; cy < 2; cy++ {
			var tgt float64
			for x := cx * 2; x < cx*2+2; x++ {
				for y := cy * 2; y < cy*2+2; y++ {
					tgt += truth[x][y]
				}
			}
			cells = append(cells, tgt)
		}
	}
	// Fine 1-D grids along both axes.
	rows, cols := make([]float64, 4), make([]float64, 4)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			rows[x] += truth[x][y]
			cols[y] += truth[x][y]
		}
	}
	g2, gx, gy := grid2(4, 2, 4, 2, cells...), grid1(4, 4, rows...), grid1(4, 4, cols...)
	m := FitProduct(g2, gx, gy, 1e-10, 500).Matrix()
	// Check every constraint is satisfied and coarse 2-D structure recovered.
	for _, c := range GridConstraints(g2, gx, gy) {
		if got := m.RectSum(c.R); math.Abs(got-c.Target) > 1e-3 {
			t.Errorf("constraint %+v: got %v", c, got)
		}
	}
	// Diagonal cells must carry clearly more mass than off-diagonal ones.
	if m.At(0, 0) < m.At(0, 3) {
		t.Errorf("diagonal structure lost: M[0,0]=%v <= M[0,3]=%v", m.At(0, 0), m.At(0, 3))
	}
}

func TestFitZeroTargetZeroesRegion(t *testing.T) {
	m := FitProduct(grid2(2, 2, 2, 1, 0, 1), nil, nil, 1e-12, 50).Matrix()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Errorf("zero-target region not cleared: %v", m.Vals)
	}
	if math.Abs(m.RectSum(Rect{1, 2, 0, 2})-1) > 1e-9 {
		t.Error("remaining region should hold all mass")
	}
}

func TestFitNegativeTargetTreatedAsZero(t *testing.T) {
	m := FitProduct(grid2(2, 2, 2, 1, -0.5, 0.5), nil, nil, 1e-12, 10).Matrix()
	if m.At(0, 0) != 0 {
		t.Errorf("negative target should clear region, got %v", m.At(0, 0))
	}
}

func TestFitSkipsEmptyRegions(t *testing.T) {
	// The 2-D cells zero the first row, then a band constrains it to 0.5: it
	// holds no mass, so it cannot be satisfied and must not produce NaN.
	m := FitProduct(grid2(2, 2, 2, 1, 0, 1), grid1(2, 2, 0.5, 0.5), nil, 1e-12, 5).Matrix()
	for _, v := range m.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value: %v", m.Vals)
		}
	}
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Errorf("massless band refilled: %v", m.Vals)
	}
}

func TestMaskSum(t *testing.T) {
	m, _ := NewMatrix(3, 3)
	selX := []bool{true, false, true}
	selY := []bool{true, true, false}
	// 4 selected entries of 1/9 each.
	if got := m.MaskSum(selX, selY); math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("MaskSum = %v, want 4/9", got)
	}
}

// fitDense is the entry-wise Algorithm-3 sweep loop: every constraint
// rescales each entry of its rectangle. It is the reference the product fit
// is checked against; it returns the number of sweeps run.
func fitDense(m *Matrix, cons []Constraint, threshold float64, maxIter int) int {
	if maxIter < 1 {
		maxIter = 1
	}
	for iter := 0; iter < maxIter; iter++ {
		var change float64
		for _, c := range cons {
			s := m.RectSum(c.R)
			if s == 0 {
				continue
			}
			target := c.Target
			if target < 0 {
				target = 0
			}
			factor := target / s
			for x := c.R.XLo; x < c.R.XHi; x++ {
				row := m.Vals[x*m.Dy : (x+1)*m.Dy]
				for y := c.R.YLo; y < c.R.YHi; y++ {
					old := row[y]
					row[y] = old * factor
					if d := row[y] - old; d >= 0 {
						change += d
					} else {
						change -= d
					}
				}
			}
		}
		if change < threshold {
			return iter + 1
		}
	}
	return maxIter
}

// randomPartition cuts [0, d) into 1..d ascending cells at random.
func randomPartition(rng *rand.Rand, d int) []int {
	bounds := []int{0}
	for p := 1; p < d; p++ {
		if rng.Intn(3) == 0 {
			bounds = append(bounds, p)
		}
	}
	return append(bounds, d)
}

// randomAxis bins [0, d) into equal-width cells or, half the time, into
// cells of unequal width, as the adaptive strategies do.
func randomAxis(rng *rand.Rand, d int) *grid.Axis {
	if rng.Intn(2) == 0 {
		return grid.MustAxis(d, 1+rng.Intn(d))
	}
	a, err := grid.NewCustomAxis(d, randomPartition(rng, d))
	if err != nil {
		panic(err)
	}
	return a
}

// randomTarget draws a constraint target: mostly positive, sometimes zero or
// negative (which the fit clamps to zero).
func randomTarget(rng *rand.Rand, cells int) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -rng.Float64() / float64(cells)
	default:
		return rng.Float64() * 2 / float64(cells)
	}
}

func randomFreq(rng *rand.Rand, cells int) []float64 {
	freq := make([]float64, cells)
	for k := range freq {
		freq[k] = randomTarget(rng, cells)
	}
	return freq
}

// randomFitCase builds a random Algorithm-3 problem shaped like FELIP's: a
// 2-D grid over random axes, and a 1-D grid on each axis whose cells are cut
// independently of the 2-D grid's; a quarter of the time either 1-D grid is
// absent.
func randomFitCase(rng *rand.Rand) (g2 *grid.Grid2D, gx, gy *grid.Grid1D, threshold float64, maxIter int) {
	dx, dy := 1+rng.Intn(12), 1+rng.Intn(12)
	g2 = grid.NewGrid2D(0, 1, randomAxis(rng, dx), randomAxis(rng, dy))
	g2.Freq = randomFreq(rng, g2.L())
	band := func(d int) *grid.Grid1D {
		if rng.Intn(4) == 0 {
			return nil
		}
		g := grid.NewGrid1D(0, randomAxis(rng, d))
		g.Freq = randomFreq(rng, g.L())
		return g
	}
	gx, gy = band(dx), band(dy)
	thresholds := []float64{0, 1e-9, 1e-3}
	return g2, gx, gy, thresholds[rng.Intn(len(thresholds))], 1 + rng.Intn(60)
}

// checkFitAgainstDense fits one problem with FitProduct and with the
// entry-wise reference over GridConstraints and requires the same sweep
// count, finite entries and every entry within fitClose of the reference.
// On four selections drawn by pick it then requires each of the four
// quadrant masses Quadrants answers to be within fitClose of the
// reference's MaskSum.
func checkFitAgainstDense(g2 *grid.Grid2D, gx, gy *grid.Grid1D, threshold float64, maxIter int, pick func(n int) int) error {
	ref, err := NewMatrix(g2.X.Domain(), g2.Y.Domain())
	if err != nil {
		return err
	}
	wantSweeps := fitDense(ref, GridConstraints(g2, gx, gy), threshold, maxIter)
	p := FitProduct(g2, gx, gy, threshold, maxIter)
	if p.sweeps != wantSweeps {
		return fmt.Errorf("%d sweeps, dense reference ran %d", p.sweeps, wantSweeps)
	}
	for k, v := range p.Matrix().Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("entry %d = %v", k, v)
		}
		if !fitClose(v, ref.Vals[k]) {
			return fmt.Errorf("entry %d = %v, dense reference %v", k, v, ref.Vals[k])
		}
	}
	for k := 0; k < 4; k++ {
		selX, selY := randomSpans(pick, ref.Dx), randomSpans(pick, ref.Dy)
		q := p.Quadrants(selX, selY)
		got := [4]float64{q.PP, q.PN, q.NP, q.NN}
		mx, my := spanMask(selX, ref.Dx), spanMask(selY, ref.Dy)
		nx, ny := spanMask(ComplementSpans(selX, ref.Dx), ref.Dx), spanMask(ComplementSpans(selY, ref.Dy), ref.Dy)
		want := [4]float64{ref.MaskSum(mx, my), ref.MaskSum(mx, ny), ref.MaskSum(nx, my), ref.MaskSum(nx, ny)}
		for r := range got {
			if !fitClose(got[r], want[r]) {
				return fmt.Errorf("selection %v × %v: quadrant %d = %v, dense reference %v", selX, selY, r, got[r], want[r])
			}
		}
	}
	return nil
}

// randomSpans draws an ascending, disjoint selection over [0, d), taking
// every choice from pick, which returns a value in [0, n): nothing, the whole
// domain, an IN-style set of single values and runs, or the complement of
// one.
func randomSpans(pick func(n int) int, d int) []Span {
	kind := pick(4)
	switch kind {
	case 0:
		return nil
	case 1:
		return []Span{{0, d}}
	}
	var spans []Span
	for v := 0; v < d; v++ {
		if pick(2) == 0 {
			continue
		}
		if k := len(spans); k > 0 && spans[k-1].Hi == v {
			spans[k-1].Hi++
		} else {
			spans = append(spans, Span{v, v + 1})
		}
	}
	if kind == 3 {
		return ComplementSpans(spans, d)
	}
	return spans
}

// spanMask is the per-value mask of a span selection over [0, d).
func spanMask(spans []Span, d int) []bool {
	mask := make([]bool, d)
	for _, s := range spans {
		for v := s.Lo; v < s.Hi; v++ {
			mask[v] = true
		}
	}
	return mask
}

// Property: the product fit runs the same number of sweeps as the entry-wise
// reference and matches it entry for entry, and its quadrant masses match
// the reference's mask sums, up to rounding: on random small problems and
// on one with 70 cells over its two axes.
func TestFitMatchesDenseReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g2, gx, gy, threshold, maxIter := randomFitCase(rng)
		if err := checkFitAgainstDense(g2, gx, gy, threshold, maxIter, rng.Intn); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	// A pair with more cells than Quadrants keeps its weights for on the
	// stack.
	rng := rand.New(rand.NewSource(2))
	g2 := grid.NewGrid2D(0, 1, grid.MustAxis(48, 40), grid.MustAxis(40, 30))
	g2.Freq = randomFreq(rng, g2.L())
	gx := grid.NewGrid1D(0, grid.MustAxis(48, 13))
	gx.Freq = randomFreq(rng, gx.L())
	if err := checkFitAgainstDense(g2, gx, nil, 1e-9, 20, rng.Intn); err != nil {
		t.Fatal(err)
	}
}

// fitClose reports whether a product-fit value matches the dense reference
// within 1e-12 relative or 1e-18 absolute.
func fitClose(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= 1e-18 || d <= 1e-12*math.Abs(want)
}

// Property: the fit preserves non-negativity and, when the bands' targets
// sum to 1, total mass 1.
func TestFitMassProperty(t *testing.T) {
	if err := quick.Check(func(t1, t2, t3 uint8) bool {
		a := float64(t1%100) + 1
		b := float64(t2%100) + 1
		c := float64(t3%100) + 1
		s := a + b + c
		m := FitProduct(grid2(6, 1, 4, 1, 1), grid1(6, 3, a/s, b/s, c/s), nil, 1e-12, 50).Matrix()
		for _, v := range m.Vals {
			if v < 0 {
				return false
			}
		}
		return math.Abs(m.Sum()-1) < 1e-6
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
