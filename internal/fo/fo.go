// Package fo implements locally differentially private frequency oracles:
// Generalized Randomized Response (GRR), Optimized Local Hashing (OLH),
// Optimized Unary Encoding (OUE) and Hadamard Response (HR), plus the
// adaptive selection rule used by FELIP (paper §2.2, §5.3).
//
// A frequency oracle is a pair of algorithms (Ψ, Φ): each user perturbs their
// private value v ∈ [0, L) locally with Ψ and sends only the perturbed report;
// the aggregator runs Φ over all reports to produce unbiased frequency
// estimates for every value in the domain. All oracles here satisfy ε-LDP.
//
// The package exposes, per protocol, a Client type (Ψ) and an Aggregator type
// (Φ) so that the user-side and server-side code paths are explicit. GRR, OLH
// and HR also implement the Perturber and Aggregator interfaces over the
// wire's (value, seed) report pair (oracle.go), through which every caller
// outside the package reaches them. Estimate simulates a full collection
// round.
package fo

import (
	"fmt"
	"math"
)

// Protocol identifies one of the implemented frequency oracles.
type Protocol uint8

const (
	// GRR is Generalized Randomized Response (direct perturbation).
	GRR Protocol = iota
	// OLH is Optimized Local Hashing (hash to g=⌈e^ε⌉+1 then GRR).
	OLH
	// OUE is Optimized Unary Encoding (perturbed one-hot bit vector).
	OUE
	// HR is Hadamard Response (implicit-matrix row index plus perturbed
	// sign; O(log L) report bits for mega-domains).
	HR
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case GRR:
		return "GRR"
	case OLH:
		return "OLH"
	case OUE:
		return "OUE"
	case HR:
		return "HR"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// GRRVariance returns Var[Φ_GRR(v)] for one value: (e^ε+L−2)/(n(e^ε−1)²)
// (paper Eq 2). It grows linearly in the domain size L.
func GRRVariance(eps float64, L, n int) float64 {
	ee := math.Exp(eps)
	return (ee + float64(L) - 2) / (float64(n) * (ee - 1) * (ee - 1))
}

// OLHVariance returns Var[Φ_OLH(v)] for one value: 4e^ε/(n(e^ε−1)²)
// (paper §2.2.2). It is independent of the domain size.
func OLHVariance(eps float64, n int) float64 {
	ee := math.Exp(eps)
	return 4 * ee / (float64(n) * (ee - 1) * (ee - 1))
}

// OUEVariance returns Var[Φ_OUE(v)] for one value, which matches OLH's
// asymptotic variance 4e^ε/(n(e^ε−1)²) (Wang et al., USENIX Sec'17).
func OUEVariance(eps float64, n int) float64 {
	return OLHVariance(eps, n)
}

// Variance returns the single-value estimation variance of the protocol for a
// domain of size L and n reports.
func (p Protocol) Variance(eps float64, L, n int) float64 {
	switch p {
	case GRR:
		return GRRVariance(eps, L, n)
	case OUE:
		return OUEVariance(eps, n)
	case HR:
		return HRVariance(eps, n)
	default:
		return OLHVariance(eps, n)
	}
}

// ChooseByVariance returns the protocol with the lower single-value variance
// for a domain of size L (paper Eq 13): GRR wins iff L < 3e^ε + 2, otherwise
// OLH. This is the pure noise-variance rule; the grid optimizer refines it by
// also accounting for non-uniformity error at each protocol's optimal size.
func ChooseByVariance(eps float64, L int) Protocol {
	if float64(L) < 3*math.Exp(eps)+2 {
		return GRR
	}
	return OLH
}

// Estimate simulates a full collection round: each value in values (all in
// [0, L)) is perturbed client-side under ε-LDP with the given protocol, and
// the aggregator's unbiased frequency estimates for all L domain values are
// returned. seed makes the round deterministic.
//
// Estimate is the path used by the FELIP engines and baselines; tests also
// exercise the Client/Aggregator pairs directly.
func Estimate(p Protocol, eps float64, L int, values []int, seed uint64) ([]float64, error) {
	agg, err := simulate(p, eps, L, values, seed)
	if err != nil {
		return nil, err
	}
	return agg.Estimates(), nil
}

// folded is what a simulated round leaves: an aggregator that estimates and
// exports its counts.
type folded interface {
	Estimates() []float64
	ExportState() (PartialState, error)
}

// simulate is the one simulation loop: every value is perturbed under eps by
// the protocol's client, on one Rand seeded with seed, and folded into a
// fresh aggregator (the buffered OLH one, which folds once at the end). OUE,
// whose report has no (value, seed) form, keeps its typed pair.
func simulate(p Protocol, eps float64, L int, values []int, seed uint64) (folded, error) {
	r := NewRand(seed)
	if p == OUE {
		c, err := NewOUEClient(eps, L)
		if err != nil {
			return nil, err
		}
		agg := NewOUEAggregator(eps, L)
		for _, v := range values {
			rep, err := c.Perturb(v, r)
			if err != nil {
				return nil, err
			}
			agg.Add(rep)
		}
		return agg, nil
	}
	c, err := NewPerturber(p, eps, L)
	if err != nil {
		return nil, err
	}
	agg, err := NewAggregator(p, eps, L)
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		value, s, err := c.PerturbReport(v, r)
		if err != nil {
			return nil, err
		}
		agg.AddReport(value, s)
	}
	return agg, nil
}

func validate(eps float64, L int) error {
	if !(eps > 0) || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return fmt.Errorf("fo: privacy budget must be a positive finite number, got %v", eps)
	}
	if L < 1 {
		return fmt.Errorf("fo: domain size must be >= 1, got %d", L)
	}
	return nil
}
