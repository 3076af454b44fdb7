package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a sample's tail is reported at, highest
// first; a level is printed only when at least ten samples lie beyond it.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// supported returns the highest percentile level at most want that has at
// least ten samples beyond it among n samples (the median when none has).
func supported(n int, want float64) float64 {
	for _, l := range tailLevels {
		if l <= want && float64(n)*(1-l) >= 10 {
			return l
		}
	}
	return 0.5
}

// describe renders a timing sample as its median, every supported tail
// percentile, the count and the busy total — the shape every timing in the
// printed table takes.
func describe(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "no samples"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p50=%.4g", quantile(xs, 0.5))
	for i := len(tailLevels) - 2; i >= 0; i-- {
		if l := tailLevels[i]; float64(len(xs))*(1-l) >= 10 {
			fmt.Fprintf(&b, " p%g=%.4g", l*100, quantile(xs, l))
		}
	}
	var busy float64
	for _, x := range xs {
		busy += x
	}
	fmt.Fprintf(&b, " n=%d sum=%.4g %s", len(xs), busy, unit)
	return b.String()
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
