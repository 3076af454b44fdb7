package fo

import "testing"

// TestModMatchExact pins the match test to the hardware % operator for
// every hash range the OLH kernel can see (g ∈ [1, 255], powers of two
// included) and every v < g, over every h < 300 and a few thousand random
// and near-2^64 values of h. The fold's bit-identity to the `% g` reference
// rests on this.
func TestModMatchExact(t *testing.T) {
	r := NewRand(0xFA57D1F)
	hs := make([]uint64, 0, 300+2000+16)
	for h := uint64(0); h < 300; h++ {
		hs = append(hs, h)
	}
	for range 2000 {
		hs = append(hs, r.Uint64())
	}
	for i := uint64(0); i < 16; i++ {
		hs = append(hs, ^uint64(0)-i)
	}
	for g := uint64(1); g <= 255; g++ {
		m := newModMatch(g)
		// Around the top multiples of g, where h − v is largest.
		top := ^uint64(0) / g * g
		check := func(h uint64) {
			t.Helper()
			for v := uint64(0); v < g; v++ {
				want := uint64(0)
				if h%g == v {
					want = 1
				}
				if got := m.match(h, v); got != want {
					t.Fatalf("g=%d: match(%#x, %d) = %d, want %d", g, h, v, got, want)
				}
			}
		}
		for _, h := range hs {
			check(h)
		}
		for _, h := range []uint64{top - g, top - 1, top, top + 1, g * (1 << 32), g*(1<<32) - 1} {
			check(h)
		}
	}
}

func TestModMatchPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newModMatch(0) did not panic")
		}
	}()
	newModMatch(0)
}
