package core

import (
	"errors"
	"sync"
	"testing"

	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/metrics"
)

// fillCollector feeds n perturbed reports from a normal dataset into col.
func fillCollector(t testing.TB, col *Collector, s *domain.Schema, n int) {
	t.Helper()
	ds := dataset.NewNormal().Generate(s, n, 5)
	cl, err := NewClient(col.Specs(), col.Epsilon(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < ds.N(); row++ {
		group := col.AssignGroup()
		rep, err := cl.Perturb(group, func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFinalizeIdempotent: the doc said "should be called once", but a second
// call used to silently re-run estimation on the finalized round. Repeat and
// concurrent calls must return the one cached Aggregator.
func TestFinalizeIdempotent(t *testing.T) {
	s := mixedSchema()
	col, err := NewCollector(s, 4000, Options{Strategy: OUG, Epsilon: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fillCollector(t, col, s, 4000)

	first, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	second, err := col.Finalize()
	if err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
	if first != second {
		t.Fatal("second Finalize returned a different Aggregator (estimation re-ran)")
	}

	// Concurrent callers also converge on the same result.
	const callers = 8
	aggs := make([]*Aggregator, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			aggs[i], _ = col.Finalize()
		}(i)
	}
	wg.Wait()
	for i, a := range aggs {
		if a != first {
			t.Fatalf("concurrent Finalize %d returned a different Aggregator", i)
		}
	}
}

// TestCollectorLiveDuringFinalize pins the tentpole's liveness property
// deterministically: with the estimation phase held open by the test hook,
// N, GroupCounts, Rejected and (refused) Add must all complete — none of
// them can be serialized behind the finalization anymore.
func TestCollectorLiveDuringFinalize(t *testing.T) {
	s := mixedSchema()
	col, err := NewCollector(s, 3000, Options{Strategy: OUG, Epsilon: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fillCollector(t, col, s, 3000)

	probed := make(chan struct{})
	release := make(chan struct{})
	testHookFinalizeEstimation = func() {
		close(probed) // estimation phase reached, collector lock released
		<-release     // hold the finalize open until the probes are done
	}
	defer func() { testHookFinalizeEstimation = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := col.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
	}()

	<-probed
	// The round is closing: status surfaces must answer immediately, and new
	// reports must be refused with the sentinel, all while Finalize is
	// provably still in flight (release is unclosed).
	if got := col.N(); got != 3000 {
		t.Errorf("N during finalize = %d, want 3000", got)
	}
	counts := col.GroupCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3000 {
		t.Errorf("GroupCounts during finalize sum to %d, want 3000", total)
	}
	if got := col.Rejected(); got != 0 {
		t.Errorf("Rejected during finalize = %d, want 0", got)
	}
	if err := col.Add(Report{Group: 0, Proto: col.Specs()[0].Proto}); !errors.Is(err, ErrFinalized) {
		t.Errorf("Add during finalize: err = %v, want ErrFinalized", err)
	}
	select {
	case <-done:
		t.Fatal("Finalize returned before the probes ran; hook did not hold it open")
	default:
	}
	close(release)
	<-done
}

// TestCollectorRaceDuringFinalize hammers the collector's read surface and
// Add path while Finalize estimates, from many goroutines. Its value is
// under -race (make check): any lock-protocol regression in the
// snapshot-then-estimate restructure shows up here.
func TestCollectorRaceDuringFinalize(t *testing.T) {
	s := mixedSchema()
	col, err := NewCollector(s, 2000, Options{Strategy: OUG, Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	fillCollector(t, col, s, 2000)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				_ = col.N()
				_ = col.GroupCounts()
				_ = col.Rejected()
				_ = col.Add(Report{Group: 0, Proto: col.Specs()[0].Proto})
			}
		}()
	}
	var aggs [2]*Aggregator
	for i := range aggs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			aggs[i], _ = col.Finalize()
		}(i)
	}
	close(start)
	wg.Wait()
	if aggs[0] == nil || aggs[0] != aggs[1] {
		t.Fatalf("concurrent Finalize calls disagree: %p vs %p", aggs[0], aggs[1])
	}
}

// TestCollectorFoldsOLHDuringCollection: the Collector folds OLH reports
// into support counts as they arrive, with nothing in Options asking for it,
// so the round's memory stays O(L) per grid and the close folds at most one
// partial batch per grid. The fold counter must advance before Finalize runs.
func TestCollectorFoldsOLHDuringCollection(t *testing.T) {
	s := mixedSchema()
	col, err := NewCollector(s, 4000, Options{Strategy: OUG, Epsilon: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	olhGrids := 0
	for _, spec := range col.Specs() {
		if spec.Proto == fo.OLH {
			olhGrids++
		}
	}
	if olhGrids == 0 {
		t.Fatal("plan has no OLH grid; the test needs one")
	}
	folded := metrics.GetCounter("fo.olh.fold_reports")
	before := folded.Value()
	fillCollector(t, col, s, 4000)
	olhReports := 0
	for g, n := range col.GroupCounts() {
		if col.Specs()[g].Proto == fo.OLH {
			olhReports += n
		}
	}
	// Every grid may still hold one partial batch of fewer than 512 reports.
	if got, least := folded.Value()-before, int64(olhReports-olhGrids*511); got < least {
		t.Fatalf("%d of %d OLH reports folded before Finalize, want at least %d", got, olhReports, least)
	}
	if _, err := col.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := folded.Value() - before; got != int64(olhReports) {
		t.Fatalf("%d OLH reports folded after Finalize, want %d", got, olhReports)
	}
}

// TestCollectorCountsRejected: malformed reports must be counted, not
// silently swallowed into an error return the operator never aggregates.
func TestCollectorCountsRejected(t *testing.T) {
	col, err := NewCollector(mixedSchema(), 1000, Options{Strategy: OUG, Epsilon: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	specs := col.Specs()
	bad := []Report{
		{Group: -1},
		{Group: len(specs)},
		{Group: 0, Proto: specs[0].Proto, Value: 1 << 20},
	}
	for _, rep := range bad {
		if err := col.Add(rep); err == nil {
			t.Fatalf("bad report %+v accepted", rep)
		}
	}
	if got := col.Rejected(); got != len(bad) {
		t.Errorf("Rejected = %d, want %d", got, len(bad))
	}
	if got := col.N(); got != 0 {
		t.Errorf("N = %d, want 0", got)
	}
}

// BenchmarkCollectorFinalize times a merge coordinator's close on the
// pipeline benchmark's plan (six 256-value numerical and two 16-value
// categorical attributes, OHG at ε = 1.2, planned for 5M users): a collector
// holding 100k reports' imported partial states runs Finalize, the grids'
// estimation and the post-processing (§5.4). Only Finalize is timed.
func BenchmarkCollectorFinalize(b *testing.B) {
	schema := dataset.MixedSchema(6, 256, 2, 16)
	opts := Options{Strategy: OHG, Epsilon: 1.2, Seed: 1201}
	src, err := NewCollector(schema, 5_000_000, opts)
	if err != nil {
		b.Fatal(err)
	}
	fillCollector(b, src, schema, 100_000)
	states, err := src.ExportPartials()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col, err := NewCollector(schema, 5_000_000, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := col.ImportPartials(states); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := col.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
