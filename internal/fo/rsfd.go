package fo

import (
	"fmt"
	"math"
)

// RS+FD estimation (Arcolezi et al., arXiv:2205.02648). Every user reports
// every grid: one uniformly-sampled grid carries the true value, the other
// m−1 carry uniform fake data, and all m reports are perturbed at the
// amplified budget ε' = AmplifiedEpsilon(ε, m). The aggregator side therefore
// folds reports with the *standard* ε'-aggregators — the counts are ordinary
// support counts — and only the final inversion differs.
//
// Derivation: the value entering the perturbation for a given grid is the
// true value with probability 1/m and uniform over [0, L) with probability
// (m−1)/m, so the effective input frequency of value v is
// f_v/m + (m−1)/(mL). With the protocol's support probabilities (p, q) at ε',
//
//	P[report supports v] = q + (p−q)·(f_v/m + (m−1)/(mL))
//
// which inverts to the unbiased estimator
//
//	f̂_v = m·(c_v/n − q)/(p−q) − (m−1)/L.

// RSFDPQ returns the protocol's support probabilities (p, q) at the amplified
// budget epsAmp: p is the probability a report supports the user's input
// value, q the probability it supports any other fixed value.
func RSFDPQ(proto Protocol, epsAmp float64, L int) (p, q float64, err error) {
	if err := validate(epsAmp, L); err != nil {
		return 0, 0, err
	}
	return rsfdPQ(proto, epsAmp, float64(L))
}

// rsfdPQ is RSFDPQ at a continuous domain size, for RSFDVarianceCont.
func rsfdPQ(proto Protocol, epsAmp, L float64) (p, q float64, err error) {
	ee := math.Exp(epsAmp)
	switch proto {
	case GRR:
		return ee / (ee + L - 1), 1 / (ee + L - 1), nil
	case OLH:
		g := float64(OptimalG(epsAmp))
		return ee / (ee + g - 1), 1 / g, nil
	case OUE:
		return 0.5, 1 / (ee + 1), nil
	default:
		return 0, 0, fmt.Errorf("fo: unknown protocol %v", proto)
	}
}

// RSFDEstimates inverts a standard ε'-aggregator's support counts into
// unbiased frequency estimates under RS+FD fake-data mixing. eps is the
// user's end-to-end budget; m the number of grids in the plan; counts the
// aggregator's per-value support counts over n reports for this grid.
func RSFDEstimates(proto Protocol, eps float64, L, m int, counts []int64, n int) ([]float64, error) {
	if m < 1 {
		return nil, fmt.Errorf("fo: RS+FD needs at least one grid, got %d", m)
	}
	if len(counts) != L {
		return nil, fmt.Errorf("fo: RS+FD got %d counts for domain %d", len(counts), L)
	}
	p, q, err := RSFDPQ(proto, AmplifiedEpsilon(eps, m), L)
	if err != nil {
		return nil, err
	}
	est := make([]float64, L)
	if n == 0 {
		return est, nil
	}
	mf := float64(m)
	fake := (mf - 1) / float64(L)
	for v, c := range counts {
		est[v] = mf*(float64(c)/float64(n)-q)/(p-q) - fake
	}
	return est, nil
}

// RSFDVariance returns Var[f̂_v] for one value at f_v = 0 under RS+FD:
// m²·P₀(1−P₀)/(n(p−q)²) with P₀ = q + (p−q)(m−1)/(mL), the support
// probability induced by fake data alone. This is the quantity the grid
// optimizer compares against FELIP's and SPL's noise variances.
func RSFDVariance(proto Protocol, eps float64, L, m, n int) float64 {
	if _, _, err := RSFDPQ(proto, AmplifiedEpsilon(eps, m), L); err != nil {
		return math.Inf(1)
	}
	return RSFDVarianceCont(proto, eps, float64(L), m, n)
}

// RSFDVarianceCont is RSFDVariance in continuous-L form, for optimizers (the
// grid planner's golden-section search) that evaluate the RS+FD objective at
// fractional cell counts. At integer L it matches RSFDVariance exactly —
// the expressions are identical, so the floats agree bit for bit.
func RSFDVarianceCont(proto Protocol, eps, L float64, m, n int) float64 {
	p, q, err := rsfdPQ(proto, AmplifiedEpsilon(eps, m), L)
	if err != nil {
		return math.Inf(1)
	}
	mf := float64(m)
	p0 := q + (p-q)*(mf-1)/(mf*L)
	return mf * mf * p0 * (1 - p0) / (float64(n) * (p - q) * (p - q))
}

// EstimateRSFD simulates a full RS+FD round for one grid: values are this
// grid's slot from every user (the true value where this grid was the user's
// sampled one, the uniform fake otherwise — the caller does the sampling so
// the per-user chain stays on one rng), perturbed at ε' and inverted. seed
// makes the round deterministic.
func EstimateRSFD(proto Protocol, eps float64, L, m int, values []int, seed uint64) ([]float64, error) {
	epsAmp := AmplifiedEpsilon(eps, m)
	// The standard client/aggregator pair folds at the amplified budget; only
	// the inversion of the raw support counts is RS+FD's own.
	if _, _, err := RSFDPQ(proto, epsAmp, L); err != nil {
		return nil, err
	}
	agg, err := simulate(proto, epsAmp, L, values, seed)
	if err != nil {
		return nil, err
	}
	st, err := agg.ExportState()
	if err != nil {
		return nil, err
	}
	return RSFDEstimates(proto, eps, L, m, st.Counts, st.N)
}
