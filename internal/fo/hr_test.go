package fo

import (
	"math"
	"testing"
)

func TestHRPaddedSize(t *testing.T) {
	cases := map[int]int{
		1: 2, 2: 4, 3: 4, 4: 8, 7: 8, 8: 16,
		1023: 1024, 1024: 2048, 100000: 131072, 1 << 17: 1 << 18,
	}
	for L, want := range cases {
		if got := HRPaddedSize(L); got != want {
			t.Errorf("HRPaddedSize(%d) = %d, want %d", L, got, want)
		}
	}
}

// The sign channel satisfies ε-LDP: for any value and any report, the two
// possible sign outputs differ in probability by exactly e^ε.
func TestHRSatisfiesLDP(t *testing.T) {
	const (
		eps    = 1.0
		L      = 6
		trials = 200000
	)
	c, err := NewHRClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(51)
	// Count kept vs flipped signs for one value: the keep rate must be
	// p = e^ε/(e^ε+1) within sampling noise.
	kept := 0
	for i := 0; i < trials; i++ {
		rep, err := c.Perturb(3, r)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sign == hadamardSign(rep.Row, 4) {
			kept++
		}
	}
	p := math.Exp(eps) / (math.Exp(eps) + 1)
	if got := float64(kept) / trials; math.Abs(got-p) > 0.005 {
		t.Errorf("keep rate %v, want %v", got, p)
	}
	if _, err := c.Perturb(L, r); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

// The estimator is unbiased: over many users drawn from a known
// distribution, estimates converge to the true frequencies.
func TestHREstimateAccuracy(t *testing.T) {
	const (
		eps = 1.2
		L   = 10
		n   = 120000
	)
	truth := []float64{0.30, 0.22, 0.15, 0.10, 0.08, 0.06, 0.04, 0.03, 0.015, 0.005}
	c, err := NewHRClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewHRAggregator(eps, L)
	r := NewRand(97)
	for i := 0; i < n; i++ {
		u := r.Float64()
		v := 0
		for cum := truth[0]; v < L-1 && u >= cum; cum += truth[v] {
			v++
		}
		rep, err := c.Perturb(v, r)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(rep)
	}
	if agg.N() != n {
		t.Fatalf("folded %d reports, want %d", agg.N(), n)
	}
	est := agg.Estimates()
	sd := math.Sqrt(HRVariance(eps, n))
	for v := range truth {
		if math.Abs(est[v]-truth[v]) > 5*sd {
			t.Errorf("f̂[%d] = %v, truth %v (|Δ| > 5σ = %v)", v, est[v], truth[v], 5*sd)
		}
	}
}

// The FWHT estimator must match the direct-summation reference bit for bit:
// both paths are exact integer arithmetic up to the single final division.
func TestHREstimatesMatchReferenceBitwise(t *testing.T) {
	for _, L := range []int{2, 3, 17, 100, 1000} {
		const eps = 0.8
		c, err := NewHRClient(eps, L)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHRAggregator(eps, L)
		r := NewRand(uint64(L))
		reports := make([]HRReport, 0, 5000)
		for i := 0; i < 5000; i++ {
			rep, err := c.Perturb(i%L, r)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(rep)
			reports = append(reports, rep)
		}
		want, err := HRReferenceEstimates(eps, L, reports)
		if err != nil {
			t.Fatal(err)
		}
		got := agg.Estimates()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("L=%d: FWHT estimate[%d] = %v, reference %v (not bit-identical)", L, v, got[v], want[v])
			}
		}
	}
}

// Empirical variance of the estimator matches the closed form within
// sampling tolerance.
func TestHREmpiricalVarianceMatchesFormula(t *testing.T) {
	const (
		eps    = 1.0
		L      = 8
		n      = 4000
		rounds = 120
		v      = 2
	)
	var sum, sumSq float64
	for round := 0; round < rounds; round++ {
		c, err := NewHRClient(eps, L)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHRAggregator(eps, L)
		r := NewRand(uint64(1000 + round))
		for i := 0; i < n; i++ {
			rep, err := c.Perturb(v, r)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(rep)
		}
		est := agg.Estimates()[v]
		sum += est
		sumSq += est * est
	}
	mean := sum / rounds
	variance := sumSq/rounds - mean*mean
	want := HRVariance(eps, n)
	if math.Abs(mean-1) > 4*math.Sqrt(want/rounds) {
		t.Errorf("mean estimate %v, want ~1", mean)
	}
	if variance < want/2 || variance > want*2 {
		t.Errorf("empirical variance %v, formula %v", variance, want)
	}
}

// The merge is exact: two aggregators over disjoint streams merge
// (ExportState, ImportState) to the state one aggregator over the union
// holds, bit for bit.
func TestHRMergeBitIdentical(t *testing.T) {
	const (
		eps = 0.9
		L   = 300
		n   = 6000
	)
	c, err := NewHRClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewHRAggregator(eps, L)
	left := NewHRAggregator(eps, L)
	right := NewHRAggregator(eps, L)
	r := NewRand(77)
	for i := 0; i < n; i++ {
		rep, err := c.Perturb(i%L, r)
		if err != nil {
			t.Fatal(err)
		}
		whole.Add(rep)
		if i%2 == 0 {
			left.Add(rep)
		} else {
			right.Add(rep)
		}
	}
	if err := mergeInto(left, right); err != nil {
		t.Fatal(err)
	}
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	a, b := left.Estimates(), whole.Estimates()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("merged estimate[%d] = %v, single %v", v, a[v], b[v])
		}
	}
	if err := mergeInto(left, NewHRAggregator(eps, L+1)); err == nil {
		t.Error("merge of incompatible L accepted")
	}
	if err := mergeInto(left, NewHRAggregator(eps+0.1, L)); err == nil {
		t.Error("merge of incompatible eps accepted")
	}
}

// State export/import round-trips exactly, and the protocol-aware Check
// refuses corrupted shapes.
func TestHRStateRoundTrip(t *testing.T) {
	const (
		eps = 1.3
		L   = 50
		n   = 3000
	)
	c, err := NewHRClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	src := NewHRAggregator(eps, L)
	r := NewRand(13)
	for i := 0; i < n; i++ {
		rep, err := c.Perturb(i%L, r)
		if err != nil {
			t.Fatal(err)
		}
		src.Add(rep)
	}
	st, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Proto != HR || st.N != n || len(st.Counts) != 2*HRPaddedSize(L) {
		t.Fatalf("exported state shape: proto=%v n=%d len=%d", st.Proto, st.N, len(st.Counts))
	}
	if err := st.Check(HR, eps, L); err != nil {
		t.Fatal(err)
	}

	dst := NewHRAggregator(eps, L)
	if err := dst.ImportState(st); err != nil {
		t.Fatal(err)
	}
	a, b := src.Estimates(), dst.Estimates()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("round-tripped estimate[%d] = %v, want %v", v, b[v], a[v])
		}
	}

	bad := st
	bad.Counts = st.Counts[:L]
	if err := dst.ImportState(bad); err == nil {
		t.Error("truncated counts accepted")
	}
	bad = st
	bad.N = st.N + 1
	if err := dst.ImportState(bad); err == nil {
		t.Error("count-sum mismatch accepted")
	}
}

// Out-of-range reports are refused and counted, never folded.
func TestHRRejectsBadReports(t *testing.T) {
	agg := NewHRAggregator(1, 10)
	agg.Add(HRReport{Row: -1, Sign: 1})
	agg.Add(HRReport{Row: HRPaddedSize(10), Sign: 1})
	agg.Add(HRReport{Row: 0, Sign: 0})
	agg.Add(HRReport{Row: 0, Sign: 2})
	if agg.N() != 0 || agg.Rejected() != 4 {
		t.Fatalf("n=%d rejected=%d, want 0/4", agg.N(), agg.Rejected())
	}
	agg.Add(HRReport{Row: 0, Sign: -1})
	if agg.N() != 1 || agg.Rejected() != 4 {
		t.Fatalf("valid report after rejects: n=%d rejected=%d", agg.N(), agg.Rejected())
	}
}

func TestHRSingletonAndEmpty(t *testing.T) {
	agg := NewHRAggregator(1, 1)
	agg.Add(HRReport{Row: 0, Sign: 1})
	if est := agg.Estimates(); len(est) != 1 || est[0] != 1 {
		t.Fatalf("singleton estimates = %v", est)
	}
	empty := NewHRAggregator(1, 5)
	for _, e := range empty.Estimates() {
		if e != 0 {
			t.Fatalf("empty aggregator estimates = %v", empty.Estimates())
		}
	}
}

// The HR variance formula sits where the AFO threshold commentary says it
// does: within 2× of OLH for ε ≤ ln(3+2√2), beyond it afterwards, and
// independent of L.
func TestHRVarianceVsOLH(t *testing.T) {
	const n = 10000
	crossover := math.Log(3 + 2*math.Sqrt2)
	for _, eps := range []float64{0.3, 1.0, crossover - 0.01} {
		if ratio := HRVariance(eps, n) / OLHVariance(eps, n); ratio > HRMaxVarianceRatio {
			t.Errorf("eps=%v: HR/OLH variance ratio %v > %v", eps, ratio, HRMaxVarianceRatio)
		}
	}
	for _, eps := range []float64{crossover + 0.01, 3.0} {
		if ratio := HRVariance(eps, n) / OLHVariance(eps, n); ratio <= HRMaxVarianceRatio {
			t.Errorf("eps=%v: HR/OLH variance ratio %v should exceed %v", eps, ratio, HRMaxVarianceRatio)
		}
	}
	if HRVariance(1, n) != HR.Variance(1, 1<<17, n) {
		t.Error("Protocol.Variance(HR) does not dispatch to HRVariance")
	}
}
