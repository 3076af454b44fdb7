package fo

import (
	"fmt"
	"math"

	"felip/internal/metrics"
)

// grrRejectedTotal counts out-of-range GRR reports process-wide (per-round
// counts live on each aggregator's Rejected).
var grrRejectedTotal = metrics.GetCounter("fo.grr.rejected")

// GRRClient is the user-side algorithm Ψ_GRR of Generalized Randomized
// Response (paper §2.2.1). With probability p = e^ε/(e^ε+L−1) the true value
// is reported; otherwise a uniformly random *other* value is reported.
type GRRClient struct {
	eps float64
	l   int
	p   float64
}

// NewGRRClient returns a GRR perturbation client for domain size L and
// privacy budget eps.
func NewGRRClient(eps float64, L int) (*GRRClient, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	ee := math.Exp(eps)
	return &GRRClient{
		eps: eps,
		l:   L,
		p:   ee / (ee + float64(L) - 1),
	}, nil
}

// Epsilon returns the privacy budget.
func (c *GRRClient) Epsilon() float64 { return c.eps }

// L returns the domain size.
func (c *GRRClient) L() int { return c.l }

// P returns the truthful-report probability p = e^ε/(e^ε+L−1).
func (c *GRRClient) P() float64 { return c.p }

// Q returns the per-value lying probability q = 1/(e^ε+L−1).
func (c *GRRClient) Q() float64 {
	if c.l == 1 {
		return 0
	}
	return (1 - c.p) / float64(c.l-1)
}

// Perturb applies Ψ_GRR to the private value v and returns the report.
func (c *GRRClient) Perturb(v int, r *Rand) (int, error) {
	if v < 0 || v >= c.l {
		return 0, fmt.Errorf("fo: GRR value %d outside domain [0,%d)", v, c.l)
	}
	if c.l == 1 {
		return 0, nil
	}
	if r.Float64() < c.p {
		return v, nil
	}
	// Uniform over the other L-1 values: draw from [0, L-1) and skip v.
	x := r.IntN(c.l - 1)
	if x >= v {
		x++
	}
	return x, nil
}

// PerturbReport is Perturb in the (value, seed) pair form: the reported
// cell, seed 0.
func (c *GRRClient) PerturbReport(v int, r *Rand) (int, uint64, error) {
	x, err := c.Perturb(v, r)
	return x, 0, err
}

// GRRAggregator is the server-side algorithm Φ_GRR: it counts reports and
// converts counts into unbiased frequency estimates (paper Eq 1). It is not
// safe for concurrent use; the collector serializes access.
type GRRAggregator struct {
	eps      float64
	l        int
	counts   []int64
	n        int
	rejected int
}

// NewGRRAggregator returns an empty aggregator for domain size L.
func NewGRRAggregator(eps float64, L int) *GRRAggregator {
	return &GRRAggregator{eps: eps, l: L, counts: make([]int64, L)}
}

// Add records one user report; it is AddReport with seed 0.
func (a *GRRAggregator) Add(report int) { a.AddReport(report, 0) }

// CheckReport accepts a reported cell in [0, L); the seed is unused.
func (a *GRRAggregator) CheckReport(value int, _ uint64) error {
	if value < 0 || value >= a.l {
		return fmt.Errorf("fo: GRR report %d outside [0,%d)", value, a.l)
	}
	return nil
}

// AddReport records one user report. A report outside [0, L) cannot have
// been produced by Ψ_GRR; it is counted as rejected rather than silently
// discarded, so malformed-client traffic stays visible to operators.
func (a *GRRAggregator) AddReport(value int, seed uint64) {
	if a.CheckReport(value, seed) != nil {
		a.rejected++
		grrRejectedTotal.Inc()
		return
	}
	a.counts[value]++
	a.n++
}

// N returns the number of reports recorded so far.
func (a *GRRAggregator) N() int { return a.n }

// Rejected returns the number of out-of-range reports Add refused.
func (a *GRRAggregator) Rejected() int { return a.rejected }

// Estimates returns the unbiased frequency estimate for every domain value:
// Φ_GRR(v) = (C(v)/n − q)/(p − q). Estimates may be negative; post-processing
// removes negativity. Returns a zero vector if no reports were added.
func (a *GRRAggregator) Estimates() []float64 {
	out := make([]float64, a.l)
	if a.n == 0 {
		return out
	}
	if a.l == 1 {
		out[0] = 1
		return out
	}
	ee := math.Exp(a.eps)
	p := ee / (ee + float64(a.l) - 1)
	q := 1 / (ee + float64(a.l) - 1)
	n := float64(a.n)
	for v, c := range a.counts {
		out[v] = (float64(c)/n - q) / (p - q)
	}
	return out
}
