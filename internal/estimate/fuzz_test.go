package estimate

import (
	"testing"

	"felip/internal/grid"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// pick returns a value in [0, n) from the next byte.
func (b *fuzzBytes) pick(n int) int { return int(b.next()) % n }

// decodeFitCase decodes an Algorithm-3 problem from in: dims of 1–16, a 2-D grid
// and, unless a flag bit drops them, a 1-D grid on each axis, each axis cut
// at the interior points whose bit is set; one byte per cell target (zero,
// negative or positive); a threshold from {0, 1e-9, 1e-3} and a cap of 1–60
// sweeps.
func decodeFitCase(in *fuzzBytes) (g2 *grid.Grid2D, gx, gy *grid.Grid1D, threshold float64, maxIter int) {
	dx, dy := 1+int(in.next()%16), 1+int(in.next()%16)
	flags := in.next()
	axis := func(d int) *grid.Axis {
		bounds := []int{0}
		var bits byte
		for p := 1; p < d; p++ {
			if (p-1)%8 == 0 {
				bits = in.next()
			}
			if bits>>((p-1)%8)&1 == 1 {
				bounds = append(bounds, p)
			}
		}
		a, err := grid.NewCustomAxis(d, append(bounds, d))
		if err != nil {
			panic(err)
		}
		return a
	}
	freq := func(cells int) []float64 {
		out := make([]float64, cells)
		for k := range out {
			switch v := in.next(); {
			case v < 16: // a zero target
			case v < 32:
				out[k] = -float64(v) / 32 / float64(cells)
			default:
				out[k] = float64(v) / 128 / float64(cells)
			}
		}
		return out
	}
	g2 = grid.NewGrid2D(0, 1, axis(dx), axis(dy))
	g2.Freq = freq(g2.L())
	if flags&1 == 0 {
		gx = grid.NewGrid1D(0, axis(dx))
		gx.Freq = freq(gx.L())
	}
	if flags&2 == 0 {
		gy = grid.NewGrid1D(1, axis(dy))
		gy.Freq = freq(gy.L())
	}
	thresholds := []float64{0, 1e-9, 1e-3}
	return g2, gx, gy, thresholds[int(flags>>2)%len(thresholds)], 1 + int(in.next()%60)
}

// FuzzFitProduct requires FitProduct to match the entry-wise reference on
// every decoded problem under TestFitMatchesDenseReference's rules — the
// same sweep count, every entry within 1e-12 relative or 1e-18 absolute, and
// the four quadrant masses of selections decoded from the remaining bytes
// within the same bounds of the reference's mask sums — and never to produce
// NaN or Inf.
func FuzzFitProduct(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 0x05, 0x02, 40, 80, 120, 160, 200, 240, 0x0a, 0x01, 50, 60, 70, 9})
	f.Add([]byte{15, 15, 4, 0x11, 0x22, 0x44, 0x88, 0xff, 0x00, 0x0f, 0xf0, 17, 0, 255, 31, 64})
	f.Add([]byte{7, 11, 9, 0xff, 0xff, 10, 20, 0, 255, 128, 5, 59})
	// A 10×8 problem, then an IN-style X selection against the complement of
	// an IN-style Y one, the full X domain against an IN-style Y, and the
	// empty X selection against the full Y domain.
	f.Add([]byte{9, 7, 0, 0x55, 0x2a, 40, 80, 120, 160, 200, 240, 90, 33, 17, 64, 99, 180, 200, 210,
		220, 230, 240, 250, 0x33, 70, 80, 90, 100, 110, 120, 130, 140, 150, 0x15, 60, 70,
		2, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 3, 0, 1, 1, 0, 0, 0, 1, 0, 1, 2, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g2, gx, gy, threshold, maxIter := decodeFitCase(&in)
		if err := checkFitAgainstDense(g2, gx, gy, threshold, maxIter, in.pick); err != nil {
			t.Fatal(err)
		}
	})
}
