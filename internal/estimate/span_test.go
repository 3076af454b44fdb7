package estimate

import (
	"math"
	"testing"

	"felip/internal/fo"
	"felip/internal/grid"
)

func TestComplementSpans(t *testing.T) {
	cases := []struct {
		in   []Span
		d    int
		want []Span
	}{
		{nil, 5, []Span{{0, 5}}},
		{[]Span{{0, 5}}, 5, []Span{}},
		{[]Span{{1, 3}}, 5, []Span{{0, 1}, {3, 5}}},
		{[]Span{{0, 1}, {2, 3}}, 5, []Span{{1, 2}, {3, 5}}},
		{[]Span{{4, 5}}, 5, []Span{{0, 4}}},
	}
	for _, c := range cases {
		got := ComplementSpans(c.in, c.d)
		if len(got) != len(c.want) {
			t.Fatalf("ComplementSpans(%v, %d) = %v, want %v", c.in, c.d, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ComplementSpans(%v, %d) = %v, want %v", c.in, c.d, got, c.want)
			}
		}
		if SpanTotal(got)+SpanTotal(c.in) != c.d {
			t.Fatalf("spans + complement don't cover [0,%d)", c.d)
		}
	}
}

// TestQuadrantsMatchMaskScan pins the serving-engine equivalence: the four
// quadrant masses Quadrants answers for a randomized contiguous-range
// selection must match the boolean mask scan (Matrix.MaskSum) over the
// product's dense matrix, for the selection and its complement on each axis,
// and so must the row and column sums they add up to. It runs on an
// arbitrary matrix (the uniform expansion of a grid with one value per cell)
// and on a fit whose cells and bands each hold several values.
func TestQuadrantsMatchMaskScan(t *testing.T) {
	r := fo.NewRand(3)
	perValue := grid.NewGrid2D(0, 1, grid.MustAxis(41, 41), grid.MustAxis(29, 29))
	perValue.Freq = make([]float64, perValue.L())
	for i := range perValue.Freq {
		perValue.Freq[i] = r.Float64()
	}
	coarse := grid.NewGrid2D(0, 1, grid.MustAxis(41, 7), grid.MustAxis(29, 5))
	coarse.Freq = make([]float64, coarse.L())
	for i := range coarse.Freq {
		coarse.Freq[i] = r.Float64() / float64(coarse.L())
	}
	gx := grid.NewGrid1D(0, grid.MustAxis(41, 3))
	gx.Freq = []float64{0.5, 0.2, 0.3}
	gy := grid.NewGrid1D(1, grid.MustAxis(29, 4))
	gy.Freq = []float64{0.1, 0.4, 0.3, 0.2}
	products := map[string]*Product{
		"per-value expansion": ExpandGrid(perValue),
		"coarse fit":          FitProduct(coarse, gx, gy, 0, 20),
	}
	for name, p := range products {
		m := p.Matrix()
		r := fo.NewRand(4)
		randSpan := func(d int) Span {
			lo := r.IntN(d)
			hi := lo + 1 + r.IntN(d-lo)
			return Span{Lo: lo, Hi: hi}
		}
		fullX, fullY := spanMask([]Span{{0, m.Dx}}, m.Dx), spanMask([]Span{{0, m.Dy}}, m.Dy)
		for trial := 0; trial < 300; trial++ {
			sx := []Span{randSpan(m.Dx)}
			sy := []Span{randSpan(m.Dy)}
			mx, my := spanMask(sx, m.Dx), spanMask(sy, m.Dy)
			nx, ny := spanMask(ComplementSpans(sx, m.Dx), m.Dx), spanMask(ComplementSpans(sy, m.Dy), m.Dy)
			q := p.Quadrants(sx, sy)
			got := [4]float64{q.PP, q.PN, q.NP, q.NN}
			want := [4]float64{m.MaskSum(mx, my), m.MaskSum(mx, ny), m.MaskSum(nx, my), m.MaskSum(nx, ny)}
			for k := range got {
				if math.Abs(got[k]-want[k]) > 1e-10 {
					t.Fatalf("%s, trial %d: quadrant %d of %v × %v = %v, mask scan = %v", name, trial, k, sx, sy, got[k], want[k])
				}
			}
			if got, want := q.PP+q.PN, m.MaskSum(mx, fullY); math.Abs(got-want) > 1e-10 {
				t.Fatalf("%s, trial %d: row sum = %v, want %v", name, trial, got, want)
			}
			if got, want := q.PP+q.NP, m.MaskSum(fullX, my); math.Abs(got-want) > 1e-10 {
				t.Fatalf("%s, trial %d: column sum = %v, want %v", name, trial, got, want)
			}
		}
	}
}
