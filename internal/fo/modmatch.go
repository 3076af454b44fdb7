package fo

import "math/bits"

// modMatch tests h mod g = v for a fixed hash range g and any v < g without
// computing the remainder. The OLH support-count kernel asks that question
// once per (report, domain value) pair — O(n·L) of them per grid — and only
// the yes-or-no answer matters, which costs one multiply where a remainder
// costs several.
//
// The test is Granlund and Montgomery's for a zero remainder after division
// by a constant (Hacker's Delight, "Test for zero remainder after division
// by a constant"). Write g = 2^k·q with q odd and let q⁻¹ be q's inverse
// mod 2^64. Then g divides d iff
//
//	rotr(d·q⁻¹ mod 2^64, k) ≤ ⌊(2^64−1)/g⌋
//
// and, since v < g, h mod g = v iff h ≥ v and g divides h − v. Both tests
// are exact over the whole uint64 range, which keeps every fold
// bit-identical to the `% g` reference; TestModMatchExact checks every
// g ≤ 255. The kernel takes a mask instead when g is a power of two.
type modMatch struct {
	inv   uint64 // q⁻¹ mod 2^64
	shift int    // k
	limit uint64 // ⌊(2^64−1)/g⌋
	mask  uint64 // g−1 when g ≥ 2 is a power of two, else 0
}

// newModMatch prepares the test for hash range g ≥ 1.
func newModMatch(g uint64) modMatch {
	if g == 0 {
		panic("fo: modMatch range must be positive")
	}
	k := bits.TrailingZeros64(g)
	q := g >> k
	// Newton's iteration doubles the correct low bits of the inverse: q is
	// its own inverse mod 8, and five steps take 3 bits past 64.
	inv := q
	for range 5 {
		inv *= 2 - q*inv
	}
	m := modMatch{inv: inv, shift: k, limit: ^uint64(0) / g}
	if q == 1 {
		m.mask = g - 1
	}
	return m
}

// match returns 1 if h mod g = v and 0 otherwise, for v < g. It has no
// branch: a hash matches with probability 1/g, far too often for the branch
// predictor. A borrow from h − v means h < v; one from limit − rotr(…)
// means g does not divide h − v.
func (m modMatch) match(h, v uint64) uint64 {
	d, below := bits.Sub64(h, v, 0)
	_, apart := bits.Sub64(m.limit, bits.RotateLeft64(d*m.inv, -m.shift), 0)
	return 1 ^ (below | apart)
}
