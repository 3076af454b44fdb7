package estimate

import "fmt"

// Span is a half-open index interval [Lo, Hi). A predicate selection over a
// domain decomposes into a short ascending list of disjoint spans: one span
// for a BETWEEN predicate, at most ⌈|values|⌉ for an IN predicate, and at
// most runs+1 for a complement. Query-time code works on spans instead of
// per-value boolean masks, so no O(d) mask is materialized per predicate.
type Span struct {
	Lo, Hi int
}

// Len returns the number of indexes inside the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// ComplementSpans returns the ascending spans covering [0, d) \ spans. spans
// must be ascending and disjoint within [0, d).
func ComplementSpans(spans []Span, d int) []Span {
	out := make([]Span, 0, len(spans)+1)
	prev := 0
	for _, s := range spans {
		if s.Lo > prev {
			out = append(out, Span{Lo: prev, Hi: s.Lo})
		}
		prev = s.Hi
	}
	if prev < d {
		out = append(out, Span{Lo: prev, Hi: d})
	}
	return out
}

// SpanTotal returns the number of indexes covered by the spans.
func SpanTotal(spans []Span) int {
	total := 0
	for _, s := range spans {
		total += s.Len()
	}
	return total
}

// SummedArea is the 2-D prefix-sum (summed-area) table of a dense row-major
// dx×dy value matrix: P[x][y] holds the total mass of the rectangle
// [0,x)×[0,y), so the mass of any axis-aligned rectangle is four corner
// lookups — O(1) instead of the O(di·dj) scan of Matrix.MaskSum — and the
// mass of a product of span sets costs O(|spansX|·|spansY|) lookups. The
// table is immutable after construction and safe for concurrent readers,
// which is what lets the serving engine answer range predicates lock-free.
//
// Rectangle sums are computed by differencing, so they can differ from a
// direct left-to-right scan of the same entries in the last few ULPs
// (floating-point addition is not associative). The divergence is bounded by
// the usual O(dx·dy·machine-epsilon) prefix-sum error — orders of magnitude
// below the estimation noise of any LDP round.
type SummedArea struct {
	dx, dy int
	// p has (dx+1)·(dy+1) entries; p[x*(dy+1)+y] = Σ vals over [0,x)×[0,y).
	p []float64
}

// NewSummedArea builds the table over a row-major dx×dy value slice.
func NewSummedArea(dx, dy int, vals []float64) (*SummedArea, error) {
	if dx < 1 || dy < 1 {
		return nil, fmt.Errorf("estimate: summed-area dims %dx%d invalid", dx, dy)
	}
	if len(vals) != dx*dy {
		return nil, fmt.Errorf("estimate: summed-area needs %d values, got %d", dx*dy, len(vals))
	}
	w := dy + 1
	p := make([]float64, (dx+1)*w)
	for x := 0; x < dx; x++ {
		row := vals[x*dy : (x+1)*dy]
		above := p[x*w:]
		cur := p[(x+1)*w:]
		var rowSum float64
		for y := 0; y < dy; y++ {
			rowSum += row[y]
			cur[y+1] = above[y+1] + rowSum
		}
	}
	return &SummedArea{dx: dx, dy: dy, p: p}, nil
}

// Dims returns the underlying matrix dimensions.
func (s *SummedArea) Dims() (dx, dy int) { return s.dx, s.dy }

// Total returns the total mass of the matrix.
func (s *SummedArea) Total() float64 { return s.p[len(s.p)-1] }

// RectSum returns the mass of the rectangle [xLo,xHi)×[yLo,yHi) in four
// corner lookups. Bounds must satisfy 0 ≤ xLo ≤ xHi ≤ dx (and likewise for
// y); an empty rectangle yields 0.
func (s *SummedArea) RectSum(xLo, xHi, yLo, yHi int) float64 {
	if xLo >= xHi || yLo >= yHi {
		return 0
	}
	w := s.dy + 1
	return s.p[xHi*w+yHi] - s.p[xLo*w+yHi] - s.p[xHi*w+yLo] + s.p[xLo*w+yLo]
}

// SpanSum returns the mass of the product selection (∪spansX) × (∪spansY):
// one RectSum per span pair.
func (s *SummedArea) SpanSum(spansX, spansY []Span) float64 {
	var total float64
	for _, sx := range spansX {
		for _, sy := range spansY {
			total += s.RectSum(sx.Lo, sx.Hi, sy.Lo, sy.Hi)
		}
	}
	return total
}

// RowSum returns the mass of (∪spansX) × [0, dy) — the X-marginal of a span
// selection.
func (s *SummedArea) RowSum(spansX []Span) float64 {
	var total float64
	for _, sx := range spansX {
		total += s.RectSum(sx.Lo, sx.Hi, 0, s.dy)
	}
	return total
}

// ColSum returns the mass of [0, dx) × (∪spansY).
func (s *SummedArea) ColSum(spansY []Span) float64 {
	var total float64
	for _, sy := range spansY {
		total += s.RectSum(0, s.dx, sy.Lo, sy.Hi)
	}
	return total
}
