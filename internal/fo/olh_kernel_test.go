package fo

import (
	"math"
	"sync"
	"testing"
)

// genOLHReports perturbs a deterministic value stream into OLH reports.
func genOLHReports(t testing.TB, eps float64, L, n int, seed uint64) []OLHReport {
	t.Helper()
	c, err := NewOLHClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(seed)
	reports := make([]OLHReport, n)
	for i := range reports {
		rep, err := c.Perturb(i%L, r)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	return reports
}

// TestOLHKernelMatchesReferenceBitForBit is the contract that keeps every
// paper-scale experiment output unchanged: the parallel fold must reproduce
// the pre-kernel sequential estimates exactly, not approximately.
func TestOLHKernelMatchesReferenceBitForBit(t *testing.T) {
	for _, tc := range []struct {
		eps  float64
		L, n int
	}{
		{1.0, 64, 3000},
		{0.5, 257, 1000}, // L > 256 exercises multi-chunk folds
		{2.0, 1, 100},    // degenerate single-value domain
		{4.0, 33, 500},   // larger g
	} {
		reports := genOLHReports(t, tc.eps, tc.L, tc.n, 42)
		want := OLHReferenceEstimates(tc.eps, tc.L, reports)

		agg := NewOLHAggregator(tc.eps, tc.L)
		for _, rep := range reports {
			agg.Add(rep)
		}
		got := agg.Estimates()
		if len(got) != len(want) {
			t.Fatalf("eps=%v L=%d: length %d, want %d", tc.eps, tc.L, len(got), len(want))
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("eps=%v L=%d: estimate[%d] = %v, want %v (not bit-identical)",
					tc.eps, tc.L, v, got[v], want[v])
			}
		}
	}
}

// TestOLHStreamingMatchesBuffered pins the fold-at-Add mode to the buffered
// mode bit for bit, including a batch-boundary-straddling report count.
func TestOLHStreamingMatchesBuffered(t *testing.T) {
	const eps, L = 1.0, 96
	n := 2*streamFoldBatch + 17
	reports := genOLHReports(t, eps, L, n, 7)

	buf := NewOLHAggregator(eps, L)
	str := NewOLHAggregatorStreaming(eps, L)
	for _, rep := range reports {
		buf.Add(rep)
		str.Add(rep)
	}
	if got, want := str.N(), buf.N(); got != want {
		t.Fatalf("streaming N = %d, buffered N = %d", got, want)
	}
	want := buf.Estimates()
	got := str.Estimates()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d]: streaming %v != buffered %v", v, got[v], want[v])
		}
	}
}

// TestOLHStreamingFoldAllocs: a streaming aggregator starts each pending
// buffer at a fold's capacity, so one fold's worth of Adds allocates that
// buffer and the fold's local support vector, not a buffer regrown from
// zero. The domain is small enough that the fold runs on one goroutine.
func TestOLHStreamingFoldAllocs(t *testing.T) {
	const eps, L = 1.2, 64
	reports := genOLHReports(t, eps, L, streamFoldBatch, 5)
	agg := NewOLHAggregatorStreaming(eps, L)
	allocs := testing.AllocsPerRun(20, func() {
		for _, rep := range reports {
			agg.Add(rep)
		}
	})
	if allocs > 2 {
		t.Fatalf("%d streaming Adds allocate %.1f times, want at most 2", streamFoldBatch, allocs)
	}
}

// TestOLHMergeEquivalence is the merge-equivalence property: sharding the
// report stream k ways, folding some shards eagerly, and merging must be
// bit-for-bit the same as one aggregator seeing every report.
func TestOLHMergeEquivalence(t *testing.T) {
	const eps, L, n = 1.2, 128, 4000
	reports := genOLHReports(t, eps, L, n, 99)

	single := NewOLHAggregator(eps, L)
	for _, rep := range reports {
		single.Add(rep)
	}
	want := single.Estimates()

	for _, k := range []int{2, 3, 7} {
		shards := make([]*OLHAggregator, k)
		for i := range shards {
			// Mix modes: even shards stream (pre-folded state), odd buffer.
			if i%2 == 0 {
				shards[i] = NewOLHAggregatorStreaming(eps, L)
			} else {
				shards[i] = NewOLHAggregator(eps, L)
			}
		}
		for j, rep := range reports {
			shards[j%k].Add(rep)
		}
		// Fold one shard completely before merging: the merge must combine
		// support vectors and pending buffers interchangeably.
		shards[0].Estimates()

		merged := NewOLHAggregator(eps, L)
		for _, sh := range shards {
			if err := mergeInto(merged, sh); err != nil {
				t.Fatalf("k=%d: merge: %v", k, err)
			}
		}
		if got, want := merged.N(), n; got != want {
			t.Fatalf("k=%d: merged N = %d, want %d", k, got, want)
		}
		got := merged.Estimates()
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("k=%d: estimate[%d] = %v, want %v (merge not exact)", k, v, got[v], want[v])
			}
		}
	}
}

// mergeInto is the one merge: export the source's state and import it.
func mergeInto(dst, src Aggregator) error {
	st, err := src.ExportState()
	if err != nil {
		return err
	}
	return dst.ImportState(st)
}

func TestOLHMergeRejectsMismatch(t *testing.T) {
	a := NewOLHAggregator(1.0, 64)
	if err := mergeInto(a, NewOLHAggregator(1.0, 65)); err == nil {
		t.Error("L mismatch accepted")
	}
	if err := mergeInto(a, NewOLHAggregator(1.5, 64)); err == nil {
		t.Error("eps mismatch accepted")
	}
	if err := mergeInto(a, NewGRRAggregator(1.0, 64)); err == nil {
		t.Error("protocol mismatch accepted")
	}
}

// TestOLHAggregatorRejectsOutOfRange: a perturbed value ≥ g can never match
// any hash, so folding it would silently bias every estimate downward; it
// must surface in Rejected and stay out of N.
func TestOLHAggregatorRejectsOutOfRange(t *testing.T) {
	agg := NewOLHAggregator(1.0, 32) // g = ⌈e⌉+1 = 4
	agg.Add(OLHReport{Seed: 1, Value: 200})
	agg.Add(OLHReport{Seed: 2, Value: 3})
	if got := agg.N(); got != 1 {
		t.Errorf("N = %d, want 1", got)
	}
	if got := agg.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

func TestGRRAggregatorRejectsOutOfRange(t *testing.T) {
	agg := NewGRRAggregator(1.0, 8)
	agg.Add(-1)
	agg.Add(8)
	agg.Add(3)
	if got := agg.N(); got != 1 {
		t.Errorf("N = %d, want 1", got)
	}
	if got := agg.Rejected(); got != 2 {
		t.Errorf("Rejected = %d, want 2", got)
	}
	est := agg.Estimates()
	if len(est) != 8 {
		t.Fatalf("estimates length %d", len(est))
	}
	for _, e := range est {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("estimate not finite: %v", est)
		}
	}
}

func TestOUEAggregatorRejectsMismatchedLength(t *testing.T) {
	c, err := NewOUEClient(1.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	cBig, err := NewOUEClient(1.0, 17)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(5)
	good, err := c.Perturb(3, r)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := cBig.Perturb(3, r)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewOUEAggregator(1.0, 16)
	agg.Add(good)
	agg.Add(bad)
	if got := agg.N(); got != 1 {
		t.Errorf("N = %d, want 1", got)
	}
	if got := agg.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

func TestGRRMergeEquivalence(t *testing.T) {
	const eps, L, n = 1.0, 32, 5000
	c, err := NewGRRClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(11)
	single := NewGRRAggregator(eps, L)
	shards := []*GRRAggregator{NewGRRAggregator(eps, L), NewGRRAggregator(eps, L), NewGRRAggregator(eps, L)}
	for i := 0; i < n; i++ {
		rep, err := c.Perturb(i%L, r)
		if err != nil {
			t.Fatal(err)
		}
		single.Add(rep)
		shards[i%3].Add(rep)
	}
	merged := NewGRRAggregator(eps, L)
	for _, sh := range shards {
		if err := mergeInto(merged, sh); err != nil {
			t.Fatal(err)
		}
	}
	want, got := single.Estimates(), merged.Estimates()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d]: merged %v != single %v", v, got[v], want[v])
		}
	}
	if err := mergeInto(merged, NewGRRAggregator(eps, L+1)); err == nil {
		t.Error("L mismatch accepted")
	}
}

func TestOUEMergeEquivalence(t *testing.T) {
	const eps, L, n = 1.0, 24, 2000
	c, err := NewOUEClient(eps, L)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(13)
	single := NewOUEAggregator(eps, L)
	shards := []*OUEAggregator{NewOUEAggregator(eps, L), NewOUEAggregator(eps, L)}
	for i := 0; i < n; i++ {
		rep, err := c.Perturb(i%L, r)
		if err != nil {
			t.Fatal(err)
		}
		single.Add(rep)
		shards[i%2].Add(rep)
	}
	merged := NewOUEAggregator(eps, L)
	for _, sh := range shards {
		st, err := sh.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.ImportState(st); err != nil {
			t.Fatal(err)
		}
	}
	want, got := single.Estimates(), merged.Estimates()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d]: merged %v != single %v", v, got[v], want[v])
		}
	}
}

// TestOLHAggregatorConcurrent exercises the kernel's own synchronization:
// concurrent Adds, N/Rejected probes, and a final estimate must neither race
// (run under -race via make check) nor lose reports.
func TestOLHAggregatorConcurrent(t *testing.T) {
	const eps, L = 1.0, 64
	const workers, perWorker = 8, 400
	reports := genOLHReports(t, eps, L, workers*perWorker, 21)

	agg := NewOLHAggregatorStreaming(eps, L)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				agg.Add(reports[w*perWorker+i])
				if i%64 == 0 {
					_ = agg.N()
					_ = agg.Rejected()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := agg.N(), workers*perWorker; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}

	// Order-insensitivity: the concurrent fold must equal the sequential one.
	want := OLHReferenceEstimates(eps, L, reports)
	got := agg.Estimates()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// TestOLHEstimatesIncludesLateReports: reports added after one Estimates call
// must fold into the next (the incremental collector relies on Estimates
// being callable on a live aggregator).
func TestOLHEstimatesRepeatable(t *testing.T) {
	const eps, L = 1.0, 48
	reports := genOLHReports(t, eps, L, 600, 31)
	agg := NewOLHAggregator(eps, L)
	for _, rep := range reports[:300] {
		agg.Add(rep)
	}
	first := agg.Estimates()
	again := agg.Estimates()
	for v := range first {
		if first[v] != again[v] {
			t.Fatalf("repeat Estimates differ at %d: %v vs %v", v, first[v], again[v])
		}
	}
	for _, rep := range reports[300:] {
		agg.Add(rep)
	}
	want := OLHReferenceEstimates(eps, L, reports)
	got := agg.Estimates()
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d] after late adds = %v, want %v", v, got[v], want[v])
		}
	}
}
