package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// countingFile counts the Write and Sync calls that reach a WAL file.
type countingFile struct {
	reportlog.File
	writes, syncs atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// countingNode is newAdmissionNode made durable: its WAL writes through a
// countingFile.
func countingNode(t *testing.T) (*Server, *httptest.Server, *Client, *countingFile) {
	t.Helper()
	srv, ts, cl := newAdmissionNode(t, fo.ModeFELIP)
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "round.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	file := &countingFile{File: f}
	l, recs, err := reportlog.OpenFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ts, cl, file
}

// TestWALWritesPerFrameAndPerReport pins, as I/O counts rather than wall
// time, why frames ingest faster than single reports: a frame of k fresh
// reports reaches the WAL as one Write and one Sync, while the same k
// reports posted one by one to POST /v1/report make k Writes. Syncs on the
// JSON path are deliberately not asserted.
func TestWALWritesPerFrameAndPerReport(t *testing.T) {
	const k = 64
	srv, _, cl, walFile := countingNode(t)
	specs := srv.col.Specs()
	probes := make([]admissionProbe, k)
	batch := make([]wire.BatchReport, k)
	for i := range probes {
		probes[i] = validProbe(specs, fo.ModeFELIP, fmt.Sprintf("io-%d", i), i%len(specs))
		batch[i] = wire.BatchReport{ID: probes[i].id, Report: probes[i].rep}
	}
	frame, err := wire.EncodeFrame(batch)
	if err != nil {
		t.Fatal(err)
	}

	writes, syncs := walFile.writes.Load(), walFile.syncs.Load()
	resp, err := cl.ReportFrame(context.Background(), frame, k)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != k {
		t.Fatalf("frame accepted %d of %d fresh reports", resp.Accepted, k)
	}
	if got := walFile.writes.Load() - writes; got != 1 {
		t.Errorf("a frame of %d reports made %d WAL writes, want 1", k, got)
	}
	if got := walFile.syncs.Load() - syncs; got != 1 {
		t.Errorf("a frame of %d reports made %d WAL syncs, want 1", k, got)
	}

	_, ts, _, jsonFile := countingNode(t)
	writes = jsonFile.writes.Load()
	for _, p := range probes {
		if status := submitJSON(t, ts.URL, p); status != http.StatusNoContent {
			t.Fatalf("POST /v1/report %q: status %d", p.id, status)
		}
	}
	if got := jsonFile.writes.Load() - writes; got != k {
		t.Errorf("%d single reports made %d WAL writes, want %d", k, got, k)
	}
}
