package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pairFromJoint computes the four exact sign-combination answers of pair
// (i, j) from a full joint over sign patterns.
func pairFromJoint(joint []float64, lambda, i, j int) PairAnswer {
	p := PairAnswer{I: i, J: j}
	for idx, v := range joint {
		hasI := idx&(1<<i) != 0
		hasJ := idx&(1<<j) != 0
		switch {
		case hasI && hasJ:
			p.PP += v
		case hasI:
			p.PN += v
		case hasJ:
			p.NP += v
		default:
			p.NN += v
		}
	}
	return p
}

func allPairs(joint []float64, lambda int) []PairAnswer {
	var out []PairAnswer
	for i := 0; i < lambda; i++ {
		for j := i + 1; j < lambda; j++ {
			out = append(out, pairFromJoint(joint, lambda, i, j))
		}
	}
	return out
}

func TestEstimateLambdaValidation(t *testing.T) {
	if _, err := EstimateLambda(1, nil, 1e-6, 10); err == nil {
		t.Error("lambda=1 accepted")
	}
	if _, err := EstimateLambda(25, nil, 1e-6, 10); err == nil {
		t.Error("lambda=25 accepted")
	}
	if _, err := EstimateLambda(3, []PairAnswer{{I: 1, J: 1}}, 1e-6, 10); err == nil {
		t.Error("I==J accepted")
	}
	if _, err := EstimateLambda(3, []PairAnswer{{I: 0, J: 5}}, 1e-6, 10); err == nil {
		t.Error("J out of range accepted")
	}
}

// Independent predicates: the λ-D answer must be the product of marginals.
func TestEstimateLambdaIndependent(t *testing.T) {
	lambda := 3
	marg := []float64{0.5, 0.3, 0.8}
	joint := make([]float64, 1<<lambda)
	for idx := range joint {
		v := 1.0
		for b := 0; b < lambda; b++ {
			if idx&(1<<b) != 0 {
				v *= marg[b]
			} else {
				v *= 1 - marg[b]
			}
		}
		joint[idx] = v
	}
	got, err := EstimateLambda(lambda, allPairs(joint, lambda), 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 0.3 * 0.8
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("independent joint: got %v, want %v", got, want)
	}
}

// Perfectly correlated predicates: all-or-nothing joint.
func TestEstimateLambdaCorrelated(t *testing.T) {
	lambda := 4
	joint := make([]float64, 1<<lambda)
	joint[(1<<lambda)-1] = 0.3 // all predicates true
	joint[0] = 0.7             // none true
	got, err := EstimateLambda(lambda, allPairs(joint, lambda), 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("correlated joint: got %v, want 0.3", got)
	}
}

// λ=2: the answer must reproduce the single pair's PP directly.
func TestEstimateLambdaTwo(t *testing.T) {
	got, err := EstimateLambda(2, []PairAnswer{{I: 0, J: 1, PP: 0.42, PN: 0.18, NP: 0.13, NN: 0.27}}, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.42) > 1e-9 {
		t.Errorf("lambda=2: got %v, want 0.42", got)
	}
}

func TestEstimateLambdaNegativeInputsClamped(t *testing.T) {
	got, err := EstimateLambda(2, []PairAnswer{{I: 0, J: 1, PP: -0.1, PN: 0.5, NP: 0.4, NN: 0.2}}, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || math.IsNaN(got) {
		t.Errorf("negative input produced %v", got)
	}
}

func TestEstimateLambdaDegenerateAllZero(t *testing.T) {
	got, err := EstimateLambda(2, []PairAnswer{{I: 0, J: 1}}, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Errorf("degenerate input produced %v", got)
	}
}

// Property: the estimate is always a valid probability for random
// (normalized) pair answers, and exact joints are recovered within IPF
// tolerance for λ=3.
func TestEstimateLambdaProbabilityProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		// Random joint over 8 sign patterns.
		s := seed
		joint := make([]float64, 8)
		var tot float64
		for i := range joint {
			s = s*6364136223846793005 + 1442695040888963407
			joint[i] = float64(s>>40) + 1
			tot += joint[i]
		}
		for i := range joint {
			joint[i] /= tot
		}
		got, err := EstimateLambda(3, allPairs(joint, 3), 1e-12, 300)
		if err != nil {
			return false
		}
		if got < -1e-9 || got > 1+1e-9 || math.IsNaN(got) {
			return false
		}
		// IPF with all pairwise marginals of a 3-way joint is not exact in
		// general, but must be reasonably close.
		return math.Abs(got-joint[7]) < 0.15
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionOf(t *testing.T) {
	bitI, bitJ := 1<<0, 1<<1
	cases := map[int]int{
		0b11: 0, // both set: PP
		0b01: 1, // i set only: PN
		0b10: 2, // j set only: NP
		0b00: 3, // neither: NN
	}
	for idx, want := range cases {
		if got := regionOf(idx, bitI, bitJ); got != want {
			t.Errorf("regionOf(%b) = %d, want %d", idx, got, want)
		}
	}
}

// fitPairEntrywise is fitPair as Algorithm 4 states it, taking each entry's
// change |v·f − v| in turn: the reference for fitPair's per-region change.
func fitPairEntrywise(z []float64, p PairAnswer) float64 {
	bitI := 1 << p.I
	bitJ := 1 << p.J
	var sums [4]float64
	for idx, v := range z {
		sums[regionOf(idx, bitI, bitJ)] += v
	}
	targets := [4]float64{p.PP, p.PN, p.NP, p.NN}
	var factors [4]float64
	for r := 0; r < 4; r++ {
		if sums[r] > 0 {
			factors[r] = targets[r] / sums[r]
		} else {
			factors[r] = 1
		}
	}
	var change float64
	for idx := range z {
		old := z[idx]
		z[idx] = old * factors[regionOf(idx, bitI, bitJ)]
		if d := z[idx] - old; d >= 0 {
			change += d
		} else {
			change -= d
		}
	}
	return change
}

// checkLambdaAgainstEntrywise runs fitLambda and the same sweeps over
// fitPairEntrywise, and requires a bit-identical z and the same sweep count.
func checkLambdaAgainstEntrywise(lambda int, pairs []PairAnswer, threshold float64, maxIter int) error {
	z, sweeps, err := fitLambda(lambda, pairs, threshold, maxIter)
	if err != nil {
		return err
	}
	want := make([]float64, 1<<lambda)
	for i := range want {
		want[i] = 1 / float64(len(want))
	}
	wantSweeps := max(maxIter, 1)
	for iter := 0; iter < max(maxIter, 1); iter++ {
		var change float64
		for _, p := range pairs {
			change += fitPairEntrywise(want, p.normalized())
		}
		if change < threshold {
			wantSweeps = iter + 1
			break
		}
	}
	if sweeps != wantSweeps {
		return fmt.Errorf("λ=%d: %d sweeps, entry-wise reference ran %d", lambda, sweeps, wantSweeps)
	}
	for k := range want {
		if z[k] != want[k] {
			return fmt.Errorf("λ=%d: z[%d] = %v, entry-wise reference %v", lambda, k, z[k], want[k])
		}
	}
	return nil
}

// randomPairs draws the C(λ,2) pair answers of a query: half the time the
// exact answers of a random joint, on which the sweeps converge and the stop
// rule decides the sweep count, otherwise independent draws that disagree,
// some of them zero or negative.
func randomPairs(rng *rand.Rand, lambda int) []PairAnswer {
	if rng.Intn(2) == 0 {
		joint := make([]float64, 1<<lambda)
		var total float64
		for k := range joint {
			joint[k] = rng.Float64()
			total += joint[k]
		}
		for k := range joint {
			joint[k] /= total
		}
		return allPairs(joint, lambda)
	}
	var pairs []PairAnswer
	for i := 0; i < lambda; i++ {
		for j := i + 1; j < lambda; j++ {
			var q [4]float64
			for r := range q {
				switch rng.Intn(10) {
				case 0:
				case 1:
					q[r] = -rng.Float64() / 10
				default:
					q[r] = rng.Float64()
				}
			}
			pairs = append(pairs, PairAnswer{I: i, J: j, PP: q[0], PN: q[1], NP: q[2], NN: q[3]})
		}
	}
	return pairs
}

// The per-region change of fitPair must stop Algorithm 4 after the same
// sweep as the entry-wise change, leaving a bit-identical z, for λ = 2..8.
func TestFitLambdaMatchesEntrywise(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	thresholds := []float64{0, 1e-12, 1e-9, 1e-6, 1e-5, 1e-3}
	for lambda := 2; lambda <= 8; lambda++ {
		for trial := 0; trial < 60; trial++ {
			threshold := thresholds[rng.Intn(len(thresholds))]
			if err := checkLambdaAgainstEntrywise(lambda, randomPairs(rng, lambda), threshold, 1+rng.Intn(100)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// BenchmarkEstimateLambda times Algorithm 4 at the 1/n threshold of a
// 100k-report round on pair answers that disagree: at λ ≥ 3 every sweep up
// to the cap of 100 runs, as on the pipeline benchmark's queries, and λ = 2
// stops after its second sweep.
func BenchmarkEstimateLambda(b *testing.B) {
	for _, lambda := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("lambda=%d", lambda), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(lambda)))
			var pairs []PairAnswer
			for i := 0; i < lambda; i++ {
				for j := i + 1; j < lambda; j++ {
					pairs = append(pairs, PairAnswer{I: i, J: j, PP: rng.Float64(), PN: rng.Float64(), NP: rng.Float64(), NN: rng.Float64()})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateLambda(lambda, pairs, 1e-5, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
