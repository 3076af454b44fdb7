package estimate

import (
	"math"
	"testing"

	"felip/internal/fo"
)

func randomMatrix(t *testing.T, dx, dy int, seed uint64) *Matrix {
	t.Helper()
	m, err := NewMatrix(dx, dy)
	if err != nil {
		t.Fatal(err)
	}
	r := fo.NewRand(seed)
	for i := range m.Vals {
		m.Vals[i] = r.Float64()
	}
	return m
}

// naiveRect is the reference O(area) rectangle sum.
func naiveRect(m *Matrix, xLo, xHi, yLo, yHi int) float64 {
	var s float64
	for x := xLo; x < xHi; x++ {
		for y := yLo; y < yHi; y++ {
			s += m.At(x, y)
		}
	}
	return s
}

func TestSummedAreaRectSum(t *testing.T) {
	m := randomMatrix(t, 37, 23, 1)
	sat, err := m.SummedArea()
	if err != nil {
		t.Fatal(err)
	}
	if dx, dy := sat.Dims(); dx != 37 || dy != 23 {
		t.Fatalf("Dims = (%d,%d), want (37,23)", dx, dy)
	}
	r := fo.NewRand(2)
	for trial := 0; trial < 500; trial++ {
		x1, x2 := r.IntN(m.Dx+1), r.IntN(m.Dx+1)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		y1, y2 := r.IntN(m.Dy+1), r.IntN(m.Dy+1)
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		want := naiveRect(m, x1, x2, y1, y2)
		got := sat.RectSum(x1, x2, y1, y2)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("RectSum(%d,%d,%d,%d) = %v, want %v", x1, x2, y1, y2, got, want)
		}
	}
	if got, want := sat.Total(), naiveRect(m, 0, m.Dx, 0, m.Dy); math.Abs(got-want) > 1e-10 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

// TestSummedAreaMatchesMaskScan pins the serving-engine equivalence: the
// span-decomposed summed-area answer of a randomized contiguous-range
// selection must match the boolean mask scan (Matrix.MaskSum) over the same
// matrix, for both the selection and its complement.
func TestSummedAreaMatchesMaskScan(t *testing.T) {
	m := randomMatrix(t, 41, 29, 3)
	sat, err := m.SummedArea()
	if err != nil {
		t.Fatal(err)
	}
	r := fo.NewRand(4)
	randSpan := func(d int) Span {
		lo := r.IntN(d)
		hi := lo + 1 + r.IntN(d-lo)
		return Span{Lo: lo, Hi: hi}
	}
	mask := func(spans []Span, d int) []bool {
		sel := make([]bool, d)
		for _, s := range spans {
			for v := s.Lo; v < s.Hi; v++ {
				sel[v] = true
			}
		}
		return sel
	}
	for trial := 0; trial < 300; trial++ {
		sx := []Span{randSpan(m.Dx)}
		sy := []Span{randSpan(m.Dy)}
		nx := ComplementSpans(sx, m.Dx)
		ny := ComplementSpans(sy, m.Dy)
		cases := []struct {
			spansX, spansY []Span
		}{{sx, sy}, {sx, ny}, {nx, sy}, {nx, ny}}
		for _, c := range cases {
			want := m.MaskSum(mask(c.spansX, m.Dx), mask(c.spansY, m.Dy))
			got := sat.SpanSum(c.spansX, c.spansY)
			if math.Abs(got-want) > 1e-10 {
				t.Fatalf("trial %d: SpanSum(%v,%v) = %v, mask scan = %v", trial, c.spansX, c.spansY, got, want)
			}
		}
		if got, want := sat.RowSum(sx), m.MaskSum(mask(sx, m.Dx), mask([]Span{{0, m.Dy}}, m.Dy)); math.Abs(got-want) > 1e-10 {
			t.Fatalf("RowSum = %v, want %v", got, want)
		}
		if got, want := sat.ColSum(sy), m.MaskSum(mask([]Span{{0, m.Dx}}, m.Dx), mask(sy, m.Dy)); math.Abs(got-want) > 1e-10 {
			t.Fatalf("ColSum = %v, want %v", got, want)
		}
	}
}

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

func TestSummedAreaErrors(t *testing.T) {
	if _, err := NewSummedArea(0, 3, nil); err == nil {
		t.Fatal("dx=0 accepted")
	}
	if _, err := NewSummedArea(2, 2, make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
