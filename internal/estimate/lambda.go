package estimate

import (
	"fmt"
	"math"
)

// PairAnswer carries the answers of the four sign combinations of one
// associated 2-D query q^(i,j): PP is the mass where both predicates hold,
// PN where i holds and j does not, and so on. I and J index the query's
// attribute list (0 ≤ I < J < λ).
type PairAnswer struct {
	I, J           int
	PP, PN, NP, NN float64
}

// normalized clamps negatives and rescales the four answers to sum to 1,
// making the IPF constraints mutually satisfiable.
func (p PairAnswer) normalized() PairAnswer {
	vals := [4]float64{p.PP, p.PN, p.NP, p.NN}
	var sum float64
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
		sum += vals[i]
	}
	if sum <= 0 {
		vals = [4]float64{0.25, 0.25, 0.25, 0.25}
		sum = 1
	}
	return PairAnswer{I: p.I, J: p.J, PP: vals[0] / sum, PN: vals[1] / sum, NP: vals[2] / sum, NN: vals[3] / sum}
}

// LambdaMaxIter caps the IPF sweeps of every λ-D estimate (Algorithm 4) a
// round's answers run.
const LambdaMaxIter = 100

// EstimateLambda implements Algorithm 4: it reconstructs the answer of a λ-D
// query from its C(λ,2) associated 2-D answers. The vector z holds one entry
// per sign pattern over the λ predicates (bit t set ⇔ predicate t holds);
// each 2-D answer constrains the sum of the 2^(λ−2) entries matching its
// pair's signs, and iterative proportional fitting runs until the total
// change per sweep is below threshold (< 1/n per the paper) or maxIter
// sweeps. The estimated query answer is z[all bits set].
func EstimateLambda(lambda int, pairs []PairAnswer, threshold float64, maxIter int) (float64, error) {
	z, _, err := fitLambda(lambda, pairs, threshold, maxIter)
	if err != nil {
		return 0, err
	}
	return z[len(z)-1], nil
}

// fitLambda runs Algorithm 4's sweeps and returns z and the number of sweeps
// run.
func fitLambda(lambda int, pairs []PairAnswer, threshold float64, maxIter int) ([]float64, int, error) {
	if lambda < 2 {
		return nil, 0, fmt.Errorf("estimate: lambda %d < 2", lambda)
	}
	if lambda > 20 {
		return nil, 0, fmt.Errorf("estimate: lambda %d too large", lambda)
	}
	size := 1 << lambda
	z := make([]float64, size)
	for i := range z {
		z[i] = 1 / float64(size)
	}
	norm := make([]PairAnswer, len(pairs))
	for i, p := range pairs {
		if p.I < 0 || p.J <= p.I || p.J >= lambda {
			return nil, 0, fmt.Errorf("estimate: invalid pair (%d,%d) for lambda %d", p.I, p.J, lambda)
		}
		norm[i] = p.normalized()
	}
	maxIter = max(maxIter, 1)
	for iter := 0; iter < maxIter; iter++ {
		var change float64
		for _, p := range norm {
			change += fitPair(z, p)
		}
		if change < threshold {
			return z, iter + 1, nil
		}
	}
	return z, maxIter, nil
}

// fitPair rescales the four sign-regions of pair (I, J) to match the pair's
// answers and returns the total absolute change. z stays non-negative (it
// starts positive and every target is), so a region's entry-wise change
// Σ|v·f − v| is |t − s|, with s its sum and t its target, and the change
// is summed per region, not per entry.
func fitPair(z []float64, p PairAnswer) float64 {
	bitI := 1 << p.I
	bitJ := 1 << p.J
	var sums [4]float64
	for idx, v := range z {
		sums[regionOf(idx, bitI, bitJ)] += v
	}
	targets := [4]float64{p.PP, p.PN, p.NP, p.NN}
	var factors [4]float64
	var change float64
	for r := 0; r < 4; r++ {
		if sums[r] > 0 {
			factors[r] = targets[r] / sums[r]
			change += math.Abs(targets[r] - sums[r])
		} else {
			factors[r] = 1
		}
	}
	for idx := range z {
		z[idx] *= factors[regionOf(idx, bitI, bitJ)]
	}
	return change
}

// regionOf maps a sign pattern to its quadrant: 0=PP, 1=PN, 2=NP, 3=NN.
func regionOf(idx, bitI, bitJ int) int {
	r := 0
	if idx&bitI == 0 {
		r |= 2
	}
	if idx&bitJ == 0 {
		r |= 1
	}
	return r
}
