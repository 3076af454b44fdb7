package estimate

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
