package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/reportlog"
)

// feedReports drives n simulated devices straight into the server's collector
// without finalizing (Simulate closes the round, which these tests must do
// themselves, under the test hook).
func feedReports(t *testing.T, srv *Server, n int, seed uint64) {
	t.Helper()
	ds := dataset.NewNormal().Generate(srv.schema, n, seed)
	device, err := core.NewClient(srv.cur.col.Specs(), srv.cur.col.Epsilon(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		rep, err := device.Perturb(srv.cur.col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.cur.col.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatusLiveDuringFinalize pins the server-level half of the tentpole:
// with the collector's estimation held open by the test hook, /v1/status and
// /v1/healthz must answer immediately (the old code held s.mu across the whole
// estimation, so both blocked), a new report must be refused with 409, and a
// concurrent finalize must wait for the in-flight attempt instead of
// re-running it.
func TestStatusLiveDuringFinalize(t *testing.T) {
	const n = 2000
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, core.Options{Strategy: core.OUG, Epsilon: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	feedReports(t, srv, n, 41)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	ctx := context.Background()

	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	probed := make(chan struct{})
	release := make(chan struct{})
	testHookFinalize = func() {
		close(probed) // server lock released, estimation about to run
		<-release     // hold the finalize open until the probes are done
	}
	defer func() { testHookFinalize = nil }()

	type finResult struct {
		n   int
		err error
	}
	finDone := make(chan finResult, 2)
	go func() {
		n, err := cl.Finalize(ctx)
		finDone <- finResult{n, err}
	}()

	<-probed
	// Finalize is provably in flight (release is unclosed). Every liveness
	// surface must answer now.
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("status during finalize: %v", err)
	}
	if st.Finalized {
		t.Error("status during finalize reports Finalized")
	}
	if !st.Finalizing {
		t.Error("status during finalize does not report Finalizing")
	}
	if st.Reports != n {
		t.Errorf("Reports during finalize = %d, want %d", st.Reports, n)
	}
	if st.Rejected != 0 {
		t.Errorf("Rejected during finalize = %d, want 0", st.Rejected)
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Errorf("healthz during finalize: %v", err)
	}
	// A report arriving while the round closes is a state conflict, not a bad
	// request — and not counted as a reject.
	device, err := core.NewClient(specs, plan.Epsilon, 43)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := device.Perturb(0, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Report(ctx, rep); err == nil {
		t.Error("report during finalize accepted")
	}
	if st, err := cl.Status(ctx); err != nil {
		t.Fatalf("status after refused report: %v", err)
	} else if st.Rejected != 0 {
		t.Errorf("round-closed refusal counted as reject: %d", st.Rejected)
	}
	// A second finalize must join the in-flight attempt, not start another.
	go func() {
		n, err := cl.Finalize(ctx)
		finDone <- finResult{n, err}
	}()
	select {
	case r := <-finDone:
		t.Fatalf("finalize returned (%d, %v) before the hook released it", r.n, r.err)
	default:
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-finDone
		if r.err != nil {
			t.Fatalf("finalize %d: %v", i, r.err)
		}
		if r.n != n {
			t.Errorf("finalize %d count = %d, want %d", i, r.n, n)
		}
	}
	st, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finalized || st.Finalizing {
		t.Errorf("after finalize: Finalized=%v Finalizing=%v", st.Finalized, st.Finalizing)
	}
	if len(st.Metrics) == 0 {
		t.Error("status carries no metrics snapshot after finalize")
	}
}

// blockingCloseFile is a WAL file whose Close blocks until release is
// closed, announcing on closing that it was entered.
type blockingCloseFile struct {
	reportlog.File
	closing, release chan struct{}
}

func (f *blockingCloseFile) Close() error {
	close(f.closing)
	<-f.release
	return f.File.Close()
}

// TestAdvanceRoundClosesSegmentOutsideLock: closing the finalized round's
// segment can take tens of milliseconds (the archive has unlinked it, so the
// close frees its blocks). While AdvanceRound(2) is held inside that close,
// Status and a report into round 2 must be answered: the lock must not be
// held across it.
func TestAdvanceRoundClosesSegmentOutsideLock(t *testing.T) {
	const n = 500
	srv, _, cl := newAdmissionNode(t, fo.ModeFELIP)
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "round.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	file := &blockingCloseFile{File: f, closing: make(chan struct{}), release: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(file.release)
		}
	}
	defer release()
	l, recs, err := reportlog.OpenFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	srv.SetWALFactory(func(round int) (*reportlog.Log, error) {
		l, _, err := reportlog.Open(filepath.Join(dir, fmt.Sprintf("round.wal.r%d", round)))
		return l, err
	})
	t.Cleanup(func() { srv.Close() })
	feedReports(t, srv, n, 47)
	if _, err := srv.finalize(); err != nil {
		t.Fatal(err)
	}

	type advance struct {
		round int
		err   error
	}
	advanced := make(chan advance, 1)
	go func() {
		round, err := srv.AdvanceRound(2)
		advanced <- advance{round, err}
	}()
	<-file.closing

	statusDone := make(chan Status, 1)
	go func() { statusDone <- srv.Status() }()
	reportDone := make(chan error, 1)
	probe := validProbe(srv.cur.col.Specs(), fo.ModeFELIP, "round-2-report", 0)
	go func() {
		_, err := cl.ReportWithID(context.Background(), probe.id, probe.rep)
		reportDone <- err
	}()
	deadline := time.After(2 * time.Second)
	select {
	case st := <-statusDone:
		if st.Round != 2 {
			t.Errorf("status during the close reports round %d, want 2", st.Round)
		}
	case <-deadline:
		t.Fatal("Status blocked while AdvanceRound closed the finalized round's segment")
	}
	select {
	case err := <-reportDone:
		if err != nil {
			t.Errorf("report into round 2 during the close: %v", err)
		}
	case <-deadline:
		t.Fatal("a report into round 2 blocked while AdvanceRound closed the finalized round's segment")
	}

	release()
	if a := <-advanced; a.err != nil || a.round != 2 {
		t.Fatalf("AdvanceRound(2) = %d, %v", a.round, a.err)
	}
	if st := srv.Status(); st.Round != 2 || st.Reports != 1 {
		t.Errorf("after the advance: round %d with %d reports, want round 2 with 1", st.Round, st.Reports)
	}
}

// TestStatusSurfacesRejected: before this PR a malformed submission got its
// error response and vanished — no operator-visible trace. Both reject layers
// (wire-level and plan-level) must show up in the status counter.
func TestStatusSurfacesRejected(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, 1000, core.Options{Strategy: core.OUG, Epsilon: 1, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(func(string, ...any) {})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	ctx := context.Background()

	specs := srv.cur.col.Specs()
	// Wire-level reject: negative group fails message validation.
	if err := cl.Report(ctx, core.Report{Group: -1, Proto: specs[0].Proto}); err == nil {
		t.Error("negative-group report accepted")
	}
	// Plan-level reject: value outside the protocol's range.
	if err := cl.Report(ctx, core.Report{Group: 0, Proto: specs[0].Proto, Value: 1 << 20}); err == nil {
		t.Error("out-of-range report accepted")
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", st.Rejected)
	}
	if st.Reports != 0 {
		t.Errorf("Reports = %d, want 0", st.Reports)
	}
}
