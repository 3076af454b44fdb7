package estimate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestFitSingleConstraint(t *testing.T) {
	m, _ := NewMatrix(4, 4)
	cons := []Constraint{
		{R: Rect{0, 2, 0, 4}, Target: 0.8},
		{R: Rect{2, 4, 0, 4}, Target: 0.2},
	}
	m.Fit(cons, 1e-9, 100)
	if got := m.RectSum(cons[0].R); math.Abs(got-0.8) > 1e-6 {
		t.Errorf("region mass = %v, want 0.8", got)
	}
	if got := m.RectSum(cons[1].R); math.Abs(got-0.2) > 1e-6 {
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
	var cons []Constraint
	// 2-D grid constraints: 2x2 cells of 2x2 values.
	for cx := 0; cx < 2; cx++ {
		for cy := 0; cy < 2; cy++ {
			r := Rect{cx * 2, cx*2 + 2, cy * 2, cy*2 + 2}
			var tgt float64
			for x := r.XLo; x < r.XHi; x++ {
				for y := r.YLo; y < r.YHi; y++ {
					tgt += truth[x][y]
				}
			}
			cons = append(cons, Constraint{R: r, Target: tgt})
		}
	}
	// Fine 1-D constraints along both axes.
	for x := 0; x < 4; x++ {
		var tgt float64
		for y := 0; y < 4; y++ {
			tgt += truth[x][y]
		}
		cons = append(cons, Constraint{R: Rect{x, x + 1, 0, 4}, Target: tgt})
	}
	for y := 0; y < 4; y++ {
		var tgt float64
		for x := 0; x < 4; x++ {
			tgt += truth[x][y]
		}
		cons = append(cons, Constraint{R: Rect{0, 4, y, y + 1}, Target: tgt})
	}
	m, _ := NewMatrix(4, 4)
	m.Fit(cons, 1e-10, 500)
	// Check every constraint is satisfied and coarse 2-D structure recovered.
	for _, c := range cons {
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
	m, _ := NewMatrix(2, 2)
	m.Fit([]Constraint{{R: Rect{0, 1, 0, 2}, Target: 0}, {R: Rect{1, 2, 0, 2}, Target: 1}}, 1e-12, 50)
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Errorf("zero-target region not cleared: %v", m.Vals)
	}
	if math.Abs(m.RectSum(Rect{1, 2, 0, 2})-1) > 1e-9 {
		t.Error("remaining region should hold all mass")
	}
}

func TestFitNegativeTargetTreatedAsZero(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	m.Fit([]Constraint{{R: Rect{0, 1, 0, 2}, Target: -0.5}}, 1e-12, 10)
	if m.At(0, 0) != 0 {
		t.Errorf("negative target should clear region, got %v", m.At(0, 0))
	}
}

func TestFitSkipsEmptyRegions(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	// Zero the first row, then constrain it to 0.5: cannot be satisfied and
	// must not panic or produce NaN.
	m.Fit([]Constraint{{R: Rect{0, 1, 0, 2}, Target: 0}}, 1e-12, 5)
	m.Fit([]Constraint{{R: Rect{0, 1, 0, 2}, Target: 0.5}}, 1e-12, 5)
	for _, v := range m.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value: %v", m.Vals)
		}
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

// fitDense is the entry-wise Algorithm-3 sweep loop Fit replaced: every
// constraint rescales each entry of its rectangle. It is the reference the
// atom fit is checked against; it returns the number of sweeps run.
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

// randomTarget draws a constraint target: mostly positive, sometimes zero or
// negative (which Fit clamps to zero).
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

// randomRect draws a non-empty rectangle anywhere in a dx×dy matrix.
func randomRect(rng *rand.Rand, dx, dy int) Rect {
	x0, y0 := rng.Intn(dx), rng.Intn(dy)
	return Rect{x0, x0 + 1 + rng.Intn(dx-x0), y0, y0 + 1 + rng.Intn(dy-y0)}
}

// randomFitCase builds a random Algorithm-3 problem shaped like FELIP's: 2-D
// cells of a random partition (row-major), then full-width bands on X, then
// full-height bands on Y, each axis cut independently of the 2-D grid, plus
// one rectangle anywhere, whose edges need not lie on any partition's cuts.
// Half the cases start from a non-uniform matrix with a zeroed block that
// one extra constraint targets, so that rectangle holds no mass and is
// skipped; a quarter add an empty rectangle, which is skipped too.
func randomFitCase(rng *rand.Rand) (*Matrix, []Constraint, float64, int) {
	dx, dy := 1+rng.Intn(12), 1+rng.Intn(12)
	m, _ := NewMatrix(dx, dy)
	var cons []Constraint
	gx, gy := randomPartition(rng, dx), randomPartition(rng, dy)
	cells := (len(gx) - 1) * (len(gy) - 1)
	for cx := 0; cx+1 < len(gx); cx++ {
		for cy := 0; cy+1 < len(gy); cy++ {
			cons = append(cons, Constraint{R: Rect{gx[cx], gx[cx+1], gy[cy], gy[cy+1]}, Target: randomTarget(rng, cells)})
		}
	}
	bx := randomPartition(rng, dx)
	for c := 0; c+1 < len(bx); c++ {
		cons = append(cons, Constraint{R: Rect{bx[c], bx[c+1], 0, dy}, Target: randomTarget(rng, len(bx)-1)})
	}
	by := randomPartition(rng, dy)
	for c := 0; c+1 < len(by); c++ {
		cons = append(cons, Constraint{R: Rect{0, dx, by[c], by[c+1]}, Target: randomTarget(rng, len(by)-1)})
	}
	cons = append(cons, Constraint{R: randomRect(rng, dx, dy), Target: randomTarget(rng, 4)})
	if rng.Intn(2) == 0 {
		for k := range m.Vals {
			m.Vals[k] = rng.Float64()
		}
		zero := randomRect(rng, dx, dy)
		for x := zero.XLo; x < zero.XHi; x++ {
			for y := zero.YLo; y < zero.YHi; y++ {
				m.Vals[x*dy+y] = 0
			}
		}
		cons = append(cons, Constraint{R: zero, Target: 0.5})
	}
	if rng.Intn(4) == 0 {
		p := rng.Intn(dx + 1)
		cons = append(cons, Constraint{R: Rect{p, p, 0, dy}, Target: 0.3})
	}
	thresholds := []float64{0, 1e-9, 1e-3}
	return m, cons, thresholds[rng.Intn(len(thresholds))], 1 + rng.Intn(60)
}

// Property: the atom fit runs the same number of sweeps as the entry-wise
// reference and matches it entry for entry up to rounding.
func TestFitMatchesDenseReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(seed int64) bool {
		m, cons, threshold, maxIter := randomFitCase(rand.New(rand.NewSource(seed)))
		ref := &Matrix{Dx: m.Dx, Dy: m.Dy, Vals: append([]float64(nil), m.Vals...)}
		wantSweeps := fitDense(ref, cons, threshold, maxIter)
		if got := m.fit(cons, threshold, maxIter); got != wantSweeps {
			t.Logf("seed %d: %d sweeps, dense reference ran %d", seed, got, wantSweeps)
			return false
		}
		for k, v := range m.Vals {
			if !fitClose(v, ref.Vals[k]) {
				t.Logf("seed %d: entry %d = %v, dense reference %v", seed, k, v, ref.Vals[k])
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// fitClose reports whether an atom-fit entry matches the dense reference
// within 1e-12 relative or 1e-18 absolute.
func fitClose(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= 1e-18 || d <= 1e-12*math.Abs(want)
}

// Property: Fit preserves non-negativity and, when constraints form a
// partition whose targets sum to 1, total mass 1.
func TestFitMassProperty(t *testing.T) {
	if err := quick.Check(func(t1, t2, t3 uint8) bool {
		a := float64(t1%100) + 1
		b := float64(t2%100) + 1
		c := float64(t3%100) + 1
		s := a + b + c
		m, _ := NewMatrix(6, 4)
		cons := []Constraint{
			{R: Rect{0, 2, 0, 4}, Target: a / s},
			{R: Rect{2, 4, 0, 4}, Target: b / s},
			{R: Rect{4, 6, 0, 4}, Target: c / s},
		}
		m.Fit(cons, 1e-12, 50)
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
