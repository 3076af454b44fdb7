package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/wire"
)

// These tests pin the single admission path: a report gets the same
// disposition, and moves the same counters, whether it arrives as a JSON
// POST /v1/report or as a one-record frame on POST /v1/reports.

// admissionProbe is one report as a device would submit it on either
// endpoint.
type admissionProbe struct {
	id   string
	rep  core.Report
	mode fo.ReportMode
	attr int
}

// validProbe is a report the plan accepts for group g under the given mode.
func validProbe(specs []core.GridSpec, mode fo.ReportMode, id string, g int) admissionProbe {
	rep := core.Report{Group: g, Proto: specs[g].Proto}
	if rep.Proto == fo.OLH {
		rep.Seed = 12345
	}
	return admissionProbe{id: id, rep: rep, mode: mode, attr: specs[g].AttrX}
}

// submitJSON posts the probe to POST /v1/report and returns the HTTP status.
func submitJSON(t *testing.T, base string, p admissionProbe) int {
	t.Helper()
	status, _ := postReport(t, base, wire.NewModeReportMessage(p.id, p.mode, core.ModeReport{Report: p.rep, Attr: p.attr}))
	return status
}

// submitFrame ingests the probe as a one-record frame and returns its
// disposition, or the frame-level status when the frame is refused whole.
func submitFrame(t *testing.T, srv *Server, p admissionProbe) int {
	t.Helper()
	frame, err := wire.EncodeFrameMode(p.mode, []wire.BatchReport{{ID: p.id, Report: p.rep, Attr: p.attr}})
	if err != nil {
		t.Fatal(err)
	}
	resp, status, err := srv.IngestFrame(frame)
	if err != nil {
		return status
	}
	if len(resp.Dispositions) != 1 {
		t.Fatalf("one-record frame answered %d dispositions", len(resp.Dispositions))
	}
	return resp.Dispositions[0]
}

// admissionCounters is the part of /v1/status both endpoints must move alike.
// wire_bytes_total is left out: it measures each endpoint's own bytes.
type admissionCounters struct {
	Reports      int
	Rejected     int
	ModeAccepted map[string]int
	ModeRejected map[string]int
}

func countersOf(t *testing.T, cl *Client) admissionCounters {
	t.Helper()
	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return admissionCounters{st.Reports, st.Rejected, st.ModeAccepted, st.ModeRejected}
}

func newAdmissionNode(t *testing.T, mode fo.ReportMode) (*Server, *httptest.Server, *Client) {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, 100, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 61, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, Dial(ts.URL, ts.Client())
}

// TestAdmissionEndpointParity submits the same report to two identical
// servers, one through POST /v1/report and one as a one-record frame, and
// requires the same disposition and the same counters. The cases that mix
// two faults pin the classifier's order: dedup, round closed, plan check,
// attribute.
func TestAdmissionEndpointParity(t *testing.T) {
	type setupFn func(t *testing.T, srv *Server, specs []core.GridSpec)
	accept := func(id string) setupFn {
		return func(t *testing.T, srv *Server, specs []core.GridSpec) {
			t.Helper()
			if d := submitFrame(t, srv, validProbe(specs, srv.mode, id, 0)); d != wire.DispositionAccepted {
				t.Fatalf("setup report %q: disposition %d", id, d)
			}
		}
	}
	finalize := func(t *testing.T, srv *Server, specs []core.GridSpec) {
		t.Helper()
		accept("closing")(t, srv, specs)
		if _, err := srv.finalize(); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name     string
		mode     fo.ReportMode
		setup    setupFn
		probe    func(specs []core.GridSpec, p admissionProbe) admissionProbe
		want     int
		rejected int
	}{
		{name: "accepted", want: wire.DispositionAccepted},
		{name: "duplicate", setup: accept("p"), want: wire.DispositionDuplicate},
		{name: "same id, other payload", setup: accept("p"), want: wire.DispositionConflict, rejected: 1,
			probe: func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Value++; return p }},
		{name: "round closed", setup: finalize, want: wire.DispositionConflict},
		{name: "unknown group", want: wire.DispositionRejected, rejected: 1,
			probe: func(specs []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Group = len(specs); return p }},
		{name: "value out of range", want: wire.DispositionRejected, rejected: 1,
			probe: func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Value = 1 << 20; return p }},
		{name: "foreign mode", want: wire.DispositionRejected, rejected: 1,
			probe: func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.mode = fo.ModeSPL; return p }},
		{name: "attr mismatch", mode: fo.ModeSPL, want: wire.DispositionRejected, rejected: 1,
			probe: func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.attr++; return p }},
		// Order pins.
		{name: "duplicate before attr", mode: fo.ModeSPL, setup: accept("p"), want: wire.DispositionDuplicate,
			probe: func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.attr++; return p }},
		{name: "round closed before plan check", setup: finalize, want: wire.DispositionConflict,
			probe: func(specs []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Group = len(specs); return p }},
		{name: "plan check before attr", mode: fo.ModeSPL, want: wire.DispositionRejected, rejected: 1,
			probe: func(specs []core.GridSpec, p admissionProbe) admissionProbe {
				p.rep.Group = len(specs)
				p.attr++
				return p
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jsonSrv, jsonTS, jsonCl := newAdmissionNode(t, tc.mode)
			frameSrv, _, frameCl := newAdmissionNode(t, tc.mode)
			specs := jsonSrv.cur.col.Specs()
			if tc.setup != nil {
				tc.setup(t, jsonSrv, specs)
				tc.setup(t, frameSrv, specs)
			}
			before := countersOf(t, jsonCl)
			if b := countersOf(t, frameCl); !reflect.DeepEqual(before, b) {
				t.Fatalf("setup diverged: json %+v, frame %+v", before, b)
			}
			p := validProbe(specs, tc.mode, "p", 0)
			if tc.probe != nil {
				p = tc.probe(specs, p)
			}

			gotJSON := submitJSON(t, jsonTS.URL, p)
			gotFrame := submitFrame(t, frameSrv, p)
			if gotJSON != tc.want || gotFrame != tc.want {
				t.Fatalf("json answered %d, frame %d; want %d", gotJSON, gotFrame, tc.want)
			}
			afterJSON, afterFrame := countersOf(t, jsonCl), countersOf(t, frameCl)
			if !reflect.DeepEqual(afterJSON, afterFrame) {
				t.Fatalf("counters diverged:\n json  %+v\n frame %+v", afterJSON, afterFrame)
			}
			if got := afterJSON.Rejected - before.Rejected; got != tc.rejected {
				t.Fatalf("rejected moved by %d, want %d", got, tc.rejected)
			}
		})
	}
}

// TestAdmissionConcurrentEndpointsCountOnce races JSON and frame senders
// over the same idempotency keys on a durable server: every key is counted
// exactly once, answered duplicate exactly once, and logged exactly once.
func TestAdmissionConcurrentEndpointsCountOnce(t *testing.T) {
	const (
		n       = 480
		senders = 3
		chunk   = 40
	)
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "race.wal")
	srv, ts, cl := durableServer(t, path, n)
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, 71)
	reports := make([]wire.BatchReport, n)
	for i := range reports {
		reports[i] = batchDevice(t, specs, plan.Epsilon, ds, i, 73)
	}

	var (
		mu                  sync.Mutex
		accepted, duplicate int
		wg                  sync.WaitGroup
		errs                = make(chan error, 2*senders)
	)
	tally := func(a, d int) {
		mu.Lock()
		accepted += a
		duplicate += d
		mu.Unlock()
	}
	for s := 0; s < senders; s++ {
		wg.Add(2)
		go func(s int) { // JSON: every senders-th key, front to back
			defer wg.Done()
			for i := s; i < n; i += senders {
				dup, err := cl.ReportWithID(ctx, reports[i].ID, reports[i].Report)
				if err != nil {
					errs <- err
					return
				}
				if dup {
					tally(0, 1)
				} else {
					tally(1, 0)
				}
			}
		}(s)
		go func(s int) { // frames: the same keys, back to front
			defer wg.Done()
			var batch []wire.BatchReport
			for i := n - 1 - s; i >= 0; i -= senders {
				batch = append(batch, reports[i])
				if len(batch) == chunk || i < senders {
					resp, err := cl.ReportBatch(ctx, batch)
					if err != nil {
						errs <- err
						return
					}
					if resp.Conflict != 0 || resp.Rejected != 0 {
						errs <- fmt.Errorf("frame refused reports: %+v", resp)
						return
					}
					tally(resp.Accepted, resp.Duplicate)
					batch = batch[:0]
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if accepted != n || duplicate != n {
		t.Fatalf("accepted %d, duplicate %d; want %d each", accepted, duplicate, n)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != n || st.DedupEntries != n || st.Rejected != 0 {
		t.Fatalf("status after the race: reports=%d dedup=%d rejected=%d, want %d/%d/0",
			st.Reports, st.DedupEntries, st.Rejected, n, n)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The log holds each key once: a restart replays exactly n reports.
	srv2, ts2, cl2 := durableServer(t, path, n)
	defer ts2.Close()
	defer srv2.Close()
	if st, err := cl2.Status(ctx); err != nil || st.WALReplayed != n || st.Reports != n {
		t.Fatalf("replay: %+v, %v; want %d reports", st, err, n)
	}
}

// TestBatchRefusedFrameChargesEachReportOnce: a frame refused for a
// malformed record inside a valid checksum charges its claimed report count
// and nothing more — classifications of the records before the bad one
// (a conflict, a plan failure) must not be charged on top.
func TestBatchRefusedFrameChargesEachReportOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  func(specs []core.GridSpec, p admissionProbe) admissionProbe
		counts bool // whether the first record's id was already counted
	}{
		{"conflict then malformed", func(_ []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Value++; return p }, true},
		{"plan failure then malformed", func(specs []core.GridSpec, p admissionProbe) admissionProbe { p.rep.Group = len(specs); return p }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, cl := newAdmissionNode(t, fo.ModeFELIP)
			specs := srv.cur.col.Specs()
			counted := validProbe(specs, fo.ModeFELIP, "x", 0)
			if tc.counts {
				if d := submitFrame(t, srv, counted); d != wire.DispositionAccepted {
					t.Fatalf("setup: disposition %d", d)
				}
			}
			first := tc.first(specs, counted)
			second := validProbe(specs, fo.ModeFELIP, "y", 0)
			frame, err := wire.EncodeFrame([]wire.BatchReport{
				{ID: first.id, Report: first.rep},
				{ID: second.id, Report: second.rep},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Record 1 gets a negative group under a recomputed checksum: the
			// envelope holds, the record lies.
			const hdr = 20 // "FELIPBF1" | count | paylen | crc
			rec1 := hdr + 1 + len(first.id) + 17
			binary.LittleEndian.PutUint32(frame[rec1+1+len(second.id)+1:], 0xFFFFFFFF)
			binary.LittleEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(frame[hdr:]))

			before := countersOf(t, cl)
			if _, status, err := srv.IngestFrame(frame); err == nil || status != http.StatusBadRequest {
				t.Fatalf("malformed frame: status %d, err %v", status, err)
			}
			after := countersOf(t, cl)
			if got := after.Rejected - before.Rejected; got != 2 {
				t.Errorf("rejected moved by %d for a refused 2-report frame, want 2", got)
			}
			if got := after.ModeRejected["FELIP"] - before.ModeRejected["FELIP"]; got != 2 {
				t.Errorf("mode_rejected[FELIP] moved by %d, want 2", got)
			}
			if after.Reports != before.Reports {
				t.Errorf("refused frame counted %d reports", after.Reports-before.Reports)
			}
		})
	}
}

// TestBatchOversizedFrameChargesBothCounters: a frame refused before it is
// even read in full charges its header's claim to rejected and to
// mode_rejected alike, as a refused JSON body does.
func TestBatchOversizedFrameChargesBothCounters(t *testing.T) {
	_, ts, cl := newAdmissionNode(t, fo.ModeFELIP)
	const claimed = 5
	body := make([]byte, maxBatchFrameBody+1)
	copy(body, wire.FrameMagic)
	binary.LittleEndian.PutUint32(body[len(wire.FrameMagic):], claimed)
	resp, err := ts.Client().Post(ts.URL+"/v1/reports", frameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame answered %d, want 413", resp.StatusCode)
	}
	st := countersOf(t, cl)
	if st.Rejected != claimed || st.ModeRejected["FELIP"] != claimed {
		t.Fatalf("rejected=%d mode_rejected=%v after an oversized %d-report frame, want %d in both",
			st.Rejected, st.ModeRejected, claimed, claimed)
	}
}

// TestBatchOUEFrameRefused: a frame holding an OUE record is malformed, not a
// report the plan refuses: the frame is answered 400 and each report it
// claims is charged to rejected once.
func TestBatchOUEFrameRefused(t *testing.T) {
	srv, _, cl := newAdmissionNode(t, fo.ModeFELIP)
	p := validProbe(srv.cur.col.Specs(), fo.ModeFELIP, "oue-1", 0)
	frame, err := wire.EncodeFrame([]wire.BatchReport{{ID: p.id, Report: p.rep}})
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 20 // "FELIPBF1" | count | paylen | crc
	frame[hdr+1+len(p.id)] = byte(fo.OUE)
	binary.LittleEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(frame[hdr:]))

	before := countersOf(t, cl)
	if _, status, err := srv.IngestFrame(frame); err == nil || status != http.StatusBadRequest {
		t.Fatalf("OUE frame: status %d, err %v; want 400", status, err)
	}
	after := countersOf(t, cl)
	if got := after.Rejected - before.Rejected; got != 1 {
		t.Errorf("rejected moved by %d for a refused 1-report frame, want 1", got)
	}
	if after.Reports != before.Reports {
		t.Errorf("refused frame counted %d reports", after.Reports-before.Reports)
	}
}

// TestAdmissionPanicReleasesLock: net/http recovers a handler's panic, so a
// panic inside admission must not leave s.mu held, or every later request
// that needs the lock blocks and the node hangs without a word. Taking the
// dedup index away (under the lock) makes classifyLocked panic on each
// endpoint; the lock must be free at once, and the next submission admitted.
func TestAdmissionPanicReleasesLock(t *testing.T) {
	for _, endpoint := range []string{"/v1/report", "/v1/reports"} {
		t.Run(strings.TrimPrefix(endpoint, "/v1/"), func(t *testing.T) {
			schema := dataset.MixedSchema(2, 32, 2, 4)
			srv, err := NewServer(schema, 100, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 61})
			if err != nil {
				t.Fatal(err)
			}
			srv.SetLogger(t.Logf)
			ts := httptest.NewUnstartedServer(srv.Handler())
			ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
			ts.Start()
			t.Cleanup(ts.Close)
			hc := &http.Client{Timeout: 5 * time.Second}

			p := validProbe(srv.cur.col.Specs(), fo.ModeFELIP, "admission-panic", 0)
			body, contentType := []byte(nil), frameContentType
			if endpoint == "/v1/report" {
				body, err = json.Marshal(wire.NewModeReportMessage(p.id, p.mode, core.ModeReport{Report: p.rep, Attr: p.attr}))
				contentType = "application/json"
			} else {
				body, err = wire.EncodeFrame([]wire.BatchReport{{ID: p.id, Report: p.rep}})
			}
			if err != nil {
				t.Fatal(err)
			}
			post := func() (*http.Response, error) {
				return hc.Post(ts.URL+endpoint, contentType, bytes.NewReader(body))
			}

			srv.mu.Lock()
			dedup := srv.dedup
			srv.dedup = nil
			srv.mu.Unlock()
			if resp, err := post(); err == nil {
				resp.Body.Close()
				t.Fatalf("%s answered %d with the dedup index gone; want the recovered panic to drop the connection", endpoint, resp.StatusCode)
			}

			relocked := make(chan struct{})
			go func() {
				srv.mu.Lock()
				srv.dedup = dedup
				srv.mu.Unlock()
				close(relocked)
			}()
			select {
			case <-relocked:
			case <-time.After(2 * time.Second):
				t.Fatalf("s.mu still held 2 s after a panic during admission on %s", endpoint)
			}

			resp, err := post()
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
				t.Fatalf("%s after the panic: %d", endpoint, resp.StatusCode)
			}
			if c := countersOf(t, Dial(ts.URL, hc)); c.Reports != 1 {
				t.Fatalf("%s after the panic: %d reports counted, want 1", endpoint, c.Reports)
			}
		})
	}
}
