package fo

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"felip/internal/metrics"
)

// Hadamard Response (HR) is the mega-domain frequency oracle: each user
// reports a single (row-index, sign) pair sampled from the implicit
// Sylvester–Hadamard matrix of the padded domain, so a report costs
// O(log L) bits regardless of L, and the aggregator folds it into two
// integer counters in O(1). Estimation inverts the whole signed count
// vector at once with a fast Walsh–Hadamard transform in O(K log K).
//
// The matrix is never materialized: entry H[j][x] of the K×K Sylvester
// matrix (K a power of two) is (−1)^popcount(j AND x), computable from the
// indexes alone. Value v ∈ [0, L) maps to column x = v+1 — column 0 is the
// all-ones column, which carries no information and is skipped.
//
// Mechanism (Acharya–Sun–Zhang, AISTATS'19 family; the "HR" entry in the
// Cormode–Maddock–Maple oracle benchmark): the client draws a uniform row
// j ∈ [0, K), computes the true sign b = H[j][x], and reports (j, b) with
// probability p = e^ε/(e^ε+1), or (j, −b) otherwise. Both outputs of the
// sign channel differ by a factor e^ε, so the report is ε-LDP.

// HRDomainThreshold is the grid-cell domain size at and above which the
// planner starts considering HR. Below it OLH strictly dominates on
// variance and its O(n·L) server fold is cheap; above it OLH's fold cost
// and OUE's L-bit reports grow linearly in L while HR stays at O(log L)
// report bits and O(1) fold work per report.
const HRDomainThreshold = 1 << 13

// HRMaxVarianceRatio bounds the accuracy the planner will trade for HR's
// constant-size reports: HR is selected over OLH only while its noise
// variance stays within this factor of OLH's. The ratio
// HRVariance/OLHVariance = (e^ε+1)²/(4e^ε) crosses 2 at ε = ln(3+2√2) ≈
// 1.76, so at higher budgets the planner falls back to OLH even on
// mega-domains.
const HRMaxVarianceRatio = 2.0

// HRPaddedSize returns the Hadamard order K for domain size L: the
// smallest power of two strictly greater than L, so columns 1..L all fit
// beside the skipped all-ones column 0.
func HRPaddedSize(L int) int {
	k := 2
	for k <= L {
		k <<= 1
	}
	return k
}

// HRVariance returns Var[Φ_HR(v)] for one value: (e^ε+1)²/(n(e^ε−1)²).
// Like OLH it is independent of the domain size; it exceeds OLH's
// 4e^ε/(n(e^ε−1)²) by the factor (e^ε+1)²/(4e^ε) ≥ 1, which stays below 2
// for ε ≤ ln(3+2√2) ≈ 1.76.
func HRVariance(eps float64, n int) float64 {
	ee := math.Exp(eps)
	r := (ee + 1) / (ee - 1)
	return r * r / float64(n)
}

// HRReport is one user's Hadamard Response report: a row of the implicit
// Hadamard matrix and the (perturbed) sign of the user's entry in it.
type HRReport struct {
	// Row is the uniformly drawn row index j ∈ [0, K).
	Row int
	// Sign is the reported matrix entry, +1 or −1.
	Sign int8
}

// hadamardSign returns the Sylvester-matrix entry H[j][x] ∈ {+1, −1}
// computed implicitly: (−1)^popcount(j AND x).
func hadamardSign(j, x int) int8 {
	if bits.OnesCount(uint(j&x))&1 == 0 {
		return 1
	}
	return -1
}

// HRClient is the user-side algorithm Ψ_HR: sample a row, read the true
// sign off the implicit matrix, and flip it with probability 1/(e^ε+1).
type HRClient struct {
	eps float64
	l   int
	k   int
	p   float64
}

// NewHRClient returns an HR perturbation client for domain size L.
func NewHRClient(eps float64, L int) (*HRClient, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	ee := math.Exp(eps)
	return &HRClient{
		eps: eps,
		l:   L,
		k:   HRPaddedSize(L),
		p:   ee / (ee + 1),
	}, nil
}

// Epsilon returns the privacy budget.
func (c *HRClient) Epsilon() float64 { return c.eps }

// L returns the original domain size.
func (c *HRClient) L() int { return c.l }

// K returns the padded (power-of-two) Hadamard order.
func (c *HRClient) K() int { return c.k }

// Perturb applies Ψ_HR to the private value v: draw a uniform row j of the
// implicit matrix, report the true sign H[j][v+1] with probability
// p = e^ε/(e^ε+1) and the flipped sign otherwise.
func (c *HRClient) Perturb(v int, r *Rand) (HRReport, error) {
	if v < 0 || v >= c.l {
		return HRReport{}, fmt.Errorf("fo: HR value %d outside domain [0,%d)", v, c.l)
	}
	j := r.IntN(c.k)
	b := hadamardSign(j, v+1)
	if r.Float64() >= c.p {
		b = -b
	}
	return HRReport{Row: j, Sign: b}, nil
}

// PerturbReport is Perturb in the (value, seed) pair form: the row and the
// sign bit (0 for +1, 1 for −1).
func (c *HRClient) PerturbReport(v int, r *Rand) (int, uint64, error) {
	rep, err := c.Perturb(v, r)
	var bit uint64
	if rep.Sign < 0 {
		bit = 1
	}
	return rep.Row, bit, err
}

// Kernel instruments (see internal/metrics), surfaced by /v1/status.
var (
	hrEstimateTimer = metrics.GetTimer("fo.hr.estimate")
	hrRejectedTotal = metrics.GetCounter("fo.hr.rejected")
	hrStateImports  = metrics.GetCounter("fo.hr.state_imports")
)

// HRAggregator is the server-side algorithm Φ_HR. Unlike OLH there is no
// deferred fold: every report lands in two per-row integer counters at Add
// time (streaming fold-at-Add), so sealing a round needs no flush and the
// state ships as the exact (plus, minus) count vectors.
type HRAggregator struct {
	eps float64
	l   int
	k   int
	p   float64

	mu       sync.Mutex
	plus     []int64
	minus    []int64
	n        int
	rejected int
}

// NewHRAggregator returns an empty aggregator for reports produced by an
// HRClient with the same ε and L. It panics on invalid parameters, matching
// the other aggregator constructors.
func NewHRAggregator(eps float64, L int) *HRAggregator {
	if err := validate(eps, L); err != nil {
		panic(err)
	}
	k := HRPaddedSize(L)
	ee := math.Exp(eps)
	return &HRAggregator{
		eps:   eps,
		l:     L,
		k:     k,
		p:     ee / (ee + 1),
		plus:  make([]int64, k),
		minus: make([]int64, k),
	}
}

// Epsilon returns the privacy budget.
func (a *HRAggregator) Epsilon() float64 { return a.eps }

// L returns the original domain size.
func (a *HRAggregator) L() int { return a.l }

// K returns the padded (power-of-two) Hadamard order.
func (a *HRAggregator) K() int { return a.k }

// Add folds one report; it is AddReport in the typed form. A sign outside
// {+1, −1} has no sign bit and is rejected.
func (a *HRAggregator) Add(rep HRReport) {
	bit := uint64(2)
	switch rep.Sign {
	case 1:
		bit = 0
	case -1:
		bit = 1
	}
	a.AddReport(rep.Row, bit)
}

// CheckReport accepts a row in [0, K) and a sign bit in {0, 1}.
func (a *HRAggregator) CheckReport(row int, bit uint64) error {
	if row < 0 || row >= a.k {
		return fmt.Errorf("fo: HR row %d outside [0,%d)", row, a.k)
	}
	if bit > 1 {
		return fmt.Errorf("fo: HR sign bit %d outside {0,1}", bit)
	}
	return nil
}

// AddReport folds one report into the per-row sign counters. Reports
// CheckReport refuses are rejected and counted.
func (a *HRAggregator) AddReport(row int, bit uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.CheckReport(row, bit) != nil {
		a.rejected++
		hrRejectedTotal.Inc()
		return
	}
	if bit == 0 {
		a.plus[row]++
	} else {
		a.minus[row]++
	}
	a.n++
}

// N returns the number of reports folded so far.
func (a *HRAggregator) N() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Rejected returns the number of out-of-range reports refused.
func (a *HRAggregator) Rejected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected
}

// fwht applies the in-place fast Walsh–Hadamard transform (Sylvester
// ordering) to a. len(a) must be a power of two. The butterfly is pure
// integer arithmetic, so the transform of integer counts is exact.
func fwht(a []int64) {
	for h := 1; h < len(a); h <<= 1 {
		for i := 0; i < len(a); i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := a[j], a[j+h]
				a[j], a[j+h] = x+y, x-y
			}
		}
	}
}

// Estimates returns the unbiased frequency estimates for all L domain
// values. With signed[j] = plus[j] − minus[j], the transform
// W = H·signed satisfies E[W[x]] = n·(2p−1)·f_{x−1}, so
// f̂_v = W[v+1] / (n(2p−1)). One FWHT inverts every value at once.
func (a *HRAggregator) Estimates() []float64 {
	defer func(t0 time.Time) { hrEstimateTimer.Observe(time.Since(t0)) }(time.Now())
	a.mu.Lock()
	signed := make([]int64, a.k)
	for j := range signed {
		signed[j] = a.plus[j] - a.minus[j]
	}
	n := a.n
	a.mu.Unlock()

	out := make([]float64, a.l)
	if a.l == 1 {
		out[0] = 1
		return out
	}
	if n == 0 {
		return out
	}
	fwht(signed)
	denom := float64(n) * (2*a.p - 1)
	for v := 0; v < a.l; v++ {
		out[v] = float64(signed[v+1]) / denom
	}
	return out
}

// HRReferenceEstimates is the straightforward O(n + L·K) implementation of
// Φ_HR: fold the reports into signed row counts, then compute each
// transform coordinate by direct summation over the implicit matrix. Both
// paths do exact integer arithmetic before one float division, so the
// kernel (FWHT) estimator must match it bit for bit; tests use it as the
// correctness oracle.
func HRReferenceEstimates(eps float64, L int, reports []HRReport) ([]float64, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	k := HRPaddedSize(L)
	signed := make([]int64, k)
	n := 0
	for _, rep := range reports {
		if rep.Row < 0 || rep.Row >= k || (rep.Sign != 1 && rep.Sign != -1) {
			continue
		}
		signed[rep.Row] += int64(rep.Sign)
		n++
	}
	out := make([]float64, L)
	if L == 1 {
		out[0] = 1
		return out, nil
	}
	if n == 0 {
		return out, nil
	}
	ee := math.Exp(eps)
	denom := float64(n) * (2*ee/(ee+1) - 1)
	for v := 0; v < L; v++ {
		var w int64
		for j := 0; j < k; j++ {
			w += signed[j] * int64(hadamardSign(j, v+1))
		}
		out[v] = float64(w) / denom
	}
	return out, nil
}
