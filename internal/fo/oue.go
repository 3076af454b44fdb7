package fo

import (
	"fmt"
	"math"

	"felip/internal/metrics"
)

// oueRejectedTotal counts mismatched OUE reports process-wide (per-round
// counts live on each aggregator's Rejected).
var oueRejectedTotal = metrics.GetCounter("fo.oue.rejected")

// OUEReport is one user's Optimized Unary Encoding report: a perturbed
// one-hot encoding of the private value, packed as a bitset.
type OUEReport struct {
	bits []uint64
	l    int
}

// Bit reports whether position v is set.
func (r OUEReport) Bit(v int) bool {
	return r.bits[v>>6]&(1<<(uint(v)&63)) != 0
}

// OUEClient is the user-side algorithm of Optimized Unary Encoding
// (Wang et al., USENIX Sec'17). The value is one-hot encoded; the 1-bit is
// kept with probability p = 1/2 and every 0-bit is flipped to 1 with
// probability q = 1/(e^ε+1). OUE matches OLH's variance with a cheaper
// aggregator but an O(L)-bit report; FELIP's ablation benchmarks use it to
// show the AFO framework extends beyond the paper's two protocols.
type OUEClient struct {
	eps float64
	l   int
	q   float64
}

// NewOUEClient returns an OUE perturbation client for domain size L.
func NewOUEClient(eps float64, L int) (*OUEClient, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	return &OUEClient{eps: eps, l: L, q: 1 / (math.Exp(eps) + 1)}, nil
}

// Epsilon returns the privacy budget.
func (c *OUEClient) Epsilon() float64 { return c.eps }

// L returns the domain size.
func (c *OUEClient) L() int { return c.l }

// Perturb applies OUE perturbation to the private value v.
func (c *OUEClient) Perturb(v int, r *Rand) (OUEReport, error) {
	if v < 0 || v >= c.l {
		return OUEReport{}, fmt.Errorf("fo: OUE value %d outside domain [0,%d)", v, c.l)
	}
	words := (c.l + 63) / 64
	rep := OUEReport{bits: make([]uint64, words), l: c.l}
	for i := 0; i < c.l; i++ {
		var bit bool
		if i == v {
			bit = r.Float64() < 0.5 // p = 1/2
		} else {
			bit = r.Float64() < c.q
		}
		if bit {
			rep.bits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return rep, nil
}

// OUEAggregator sums the reported bit vectors and converts per-position
// counts into unbiased frequency estimates. It is not safe for concurrent
// use; the collector serializes access.
type OUEAggregator struct {
	eps      float64
	l        int
	counts   []int64
	n        int
	rejected int
}

// NewOUEAggregator returns an empty aggregator for domain size L.
func NewOUEAggregator(eps float64, L int) *OUEAggregator {
	return &OUEAggregator{eps: eps, l: L, counts: make([]int64, L)}
}

// Add records one user report. A report whose bitset length does not match
// the domain cannot have been produced by this round's Ψ_OUE; it is counted
// as rejected rather than silently dropped.
func (a *OUEAggregator) Add(rep OUEReport) {
	if rep.l != a.l {
		a.rejected++
		oueRejectedTotal.Inc()
		return
	}
	for v := 0; v < a.l; v++ {
		if rep.Bit(v) {
			a.counts[v]++
		}
	}
	a.n++
}

// N returns the number of reports recorded so far.
func (a *OUEAggregator) N() int { return a.n }

// Rejected returns the number of mismatched reports Add refused.
func (a *OUEAggregator) Rejected() int { return a.rejected }

// Estimates returns the unbiased frequency estimate for every domain value:
// (C(v)/n − q)/(p − q) with p = 1/2, q = 1/(e^ε+1).
func (a *OUEAggregator) Estimates() []float64 {
	out := make([]float64, a.l)
	if a.n == 0 {
		return out
	}
	q := 1 / (math.Exp(a.eps) + 1)
	p := 0.5
	n := float64(a.n)
	for v, c := range a.counts {
		out[v] = (float64(c)/n - q) / (p - q)
	}
	return out
}
