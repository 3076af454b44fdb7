package fo

import (
	"fmt"
	"testing"
)

// benchOLHReports builds one shared report set per benchmark scale.
func benchOLHReports(b *testing.B, eps float64, L, n int) []OLHReport {
	b.Helper()
	return genOLHReports(b, eps, L, n, 1234)
}

// BenchmarkOLHEstimatesKernel measures the parallel fold kernel at the
// acceptance scale (n=100k, L=1024) and smaller points. hashes/s is the
// portable throughput figure: n·L hash evaluations per estimate.
func BenchmarkOLHEstimatesKernel(b *testing.B) {
	for _, sc := range []struct{ n, L int }{{10_000, 256}, {100_000, 1024}} {
		b.Run(fmt.Sprintf("n=%d/L=%d", sc.n, sc.L), func(b *testing.B) {
			reports := benchOLHReports(b, 1.0, sc.L, sc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg := NewOLHAggregator(1.0, sc.L)
				for _, rep := range reports {
					agg.Add(rep)
				}
				_ = agg.Estimates()
			}
			b.StopTimer()
			hashes := float64(sc.n) * float64(sc.L) * float64(b.N)
			b.ReportMetric(hashes/b.Elapsed().Seconds(), "hashes/s")
		})
	}
}

// BenchmarkOLHEstimatesReference is the pre-kernel sequential baseline the
// ≥2× acceptance criterion compares against.
func BenchmarkOLHEstimatesReference(b *testing.B) {
	for _, sc := range []struct{ n, L int }{{10_000, 256}, {100_000, 1024}} {
		b.Run(fmt.Sprintf("n=%d/L=%d", sc.n, sc.L), func(b *testing.B) {
			reports := benchOLHReports(b, 1.0, sc.L, sc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = OLHReferenceEstimates(1.0, sc.L, reports)
			}
			b.StopTimer()
			hashes := float64(sc.n) * float64(sc.L) * float64(b.N)
			b.ReportMetric(hashes/b.Elapsed().Seconds(), "hashes/s")
		})
	}
}

// BenchmarkOLHStreamingAdd measures the fold-at-Add path: per-report cost of
// the memory-bounded mode. ε = 1 gives g = 4, which folds with a mask; ε = 1.2
// (the pipeline benchmark's) gives g = 5, which folds with modMatch.
func BenchmarkOLHStreamingAdd(b *testing.B) {
	for _, eps := range []float64{1, 1.2} {
		for _, L := range []int{16, 64, 256, 1024} {
			b.Run(fmt.Sprintf("eps=%g/L=%d", eps, L), func(b *testing.B) {
				reports := benchOLHReports(b, eps, L, 100_000)
				agg := NewOLHAggregatorStreaming(eps, L)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					agg.Add(reports[i%len(reports)])
				}
			})
		}
	}
}

// BenchmarkModMatch and BenchmarkHardwareMod answer the kernel's question,
// h mod 5 = v, with the match test and with the hardware remainder.
func BenchmarkModMatch(b *testing.B) {
	m := newModMatch(5)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += m.match(uint64(i)*0x9E3779B97F4A7C15, uint64(i)&3)
	}
	sinkU64 = acc
}

func BenchmarkHardwareMod(b *testing.B) {
	d := uint64(5)
	var acc uint64
	for i := 0; i < b.N; i++ {
		if (uint64(i)*0x9E3779B97F4A7C15)%d == uint64(i)&3 {
			acc++
		}
	}
	sinkU64 = acc
}

var sinkU64 uint64
