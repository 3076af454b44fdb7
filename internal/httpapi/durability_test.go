package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/faultinject"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// durableServer builds a server over the WAL at path, replaying whatever the
// log already holds. Every call with the same path and seed reconstructs the
// same plan, which is what a restarted aggregator does in production.
func durableServer(t *testing.T, path string, n int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	l, recs, err := reportlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, Dial(ts.URL, ts.Client())
}

// A mid-round crash — including a torn append — must lose nothing that was
// acknowledged, and a retry of an already-acknowledged report must be
// recognized across the restart.
func TestWALRecoveryMidRound(t *testing.T) {
	const n = 2000
	path := filepath.Join(t.TempDir(), "round.wal")
	ctx := context.Background()

	_, ts, cl := durableServer(t, path, n)
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	device, err := core.NewClient(specs, plan.Epsilon, 33)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, 35)

	submit := func(cl *Client, row int) (string, core.Report) {
		group, err := cl.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := device.Perturb(group, func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("user-%d", row)
		if dup, err := cl.ReportWithID(ctx, id, rep); err != nil || dup {
			t.Fatalf("report %d: dup=%v err=%v", row, dup, err)
		}
		return id, rep
	}

	ids := make(map[string]core.Report, n)
	for row := 0; row < n/2; row++ {
		id, rep := submit(cl, row)
		ids[id] = rep
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable || st.WALPos == 0 || st.Reports != n/2 || st.DedupEntries != n/2 {
		t.Fatalf("pre-crash status %+v", st)
	}

	// Crash: the server is abandoned without Close, and the crash tears a
	// half-written record onto the log (a report that was never
	// acknowledged).
	ts.Close()
	if err := faultinject.AppendGarbage(path, []byte{0, 0, 0, 9, 1, 2, 3, 4, 'x'}); err != nil {
		t.Fatal(err)
	}

	_, ts2, cl2 := durableServer(t, path, n)
	defer ts2.Close()
	st, err = cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reports != n/2 || st.DedupEntries != n/2 || st.Finalized {
		t.Fatalf("post-restart status %+v", st)
	}

	// A device that never saw its acknowledgment retries through the
	// restart: recognized, not recounted.
	for _, id := range []string{"user-0", "user-999"} {
		dup, err := cl2.ReportWithID(ctx, id, ids[id])
		if err != nil || !dup {
			t.Fatalf("replay of %s across restart: dup=%v err=%v", id, dup, err)
		}
	}
	if st, _ := cl2.Status(ctx); st.Reports != n/2 {
		t.Fatalf("replays were recounted: %+v", st)
	}

	for row := n / 2; row < n; row++ {
		submit(cl2, row)
	}
	count, err := cl2.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("finalized %d reports, want %d", count, n)
	}
	if _, err := cl2.Query(ctx, "num0=0..15"); err != nil {
		t.Fatal(err)
	}

	// Second crash, after finalization: the restarted server re-serves the
	// finalized round without any client action.
	ts2.Close()
	_, ts3, cl3 := durableServer(t, path, n)
	defer ts3.Close()
	st, err = cl3.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finalized || st.Reports != n {
		t.Fatalf("post-finalize restart status %+v", st)
	}
	if _, err := cl3.Query(ctx, "num0=0..15"); err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	if again, err := cl3.Finalize(ctx); err != nil || again != n {
		t.Fatalf("refinalize: %d, %v", again, err)
	}
	if err := cl3.Report(ctx, ids["user-0"]); err == nil {
		t.Error("new report accepted into a finalized round")
	}
}

func TestUseWALRejectsMisuse(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)
	newSrv := func() *Server {
		srv, err := NewServer(schema, 1000, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		return srv
	}
	open := func(name string) (*reportlog.Log, []reportlog.Record) {
		l, recs, err := reportlog.Open(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		return l, recs
	}

	srv := newSrv()
	l, recs := open("a.wal")
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	if l2, recs2 := open("b.wal"); srv.UseWAL(l2, recs2) == nil {
		t.Error("second WAL attached")
	}

	// A log from a different round (an unknown group) must fail the replay
	// loudly instead of silently skewing the estimates.
	l3, _ := open("c.wal")
	if err := l3.Append(reportlog.ReportRecord("x", 9999, "GRR", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := newSrv().UseWAL(l3, []reportlog.Record{reportlog.ReportRecord("x", 9999, "GRR", 0, 0)}); err == nil {
		t.Error("foreign WAL replayed")
	}

	// Reports after Close are refused, not silently made non-durable.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, _ := postReport(t, ts.URL, wire.NewReportMessage(wire.NewReportID(), core.Report{Proto: fo.GRR}))
	if status != http.StatusServiceUnavailable {
		t.Errorf("report after Close: status %d, want 503", status)
	}
}

func postReport(t *testing.T, base string, msg any) (int, string) {
	t.Helper()
	var body []byte
	switch m := msg.(type) {
	case []byte:
		body = m
	default:
		var err error
		body, err = json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// Every malformed report must yield a 4xx and leave the round's count
// untouched — never a panic, never a silently-counted report.
func TestReportValidationEdgeCases(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, 1000, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	ctx := context.Background()

	specs := srv.cur.col.Specs()
	g0 := specs[0]
	valid := wire.ReportMessage{
		ReportID: "edge-ok",
		Group:    0,
		Proto:    g0.Proto.String(),
		Value:    0,
	}
	if g0.Proto == fo.OLH {
		valid.Seed = 1
	}

	cases := []struct {
		name   string
		mutate func(m *wire.ReportMessage)
		want   int
	}{
		{"group out of range", func(m *wire.ReportMessage) { m.Group = len(specs) }, http.StatusBadRequest},
		{"group negative", func(m *wire.ReportMessage) { m.Group = -1 }, http.StatusBadRequest},
		{"unknown proto", func(m *wire.ReportMessage) { m.Proto = "RAPPOR" }, http.StatusBadRequest},
		{"negative value", func(m *wire.ReportMessage) { m.Value = -1 }, http.StatusBadRequest},
		{"value past domain", func(m *wire.ReportMessage) { m.Value = 1 << 30 }, http.StatusBadRequest},
		{"missing report_id", func(m *wire.ReportMessage) { m.ReportID = "" }, http.StatusBadRequest},
		{"oversized report_id", func(m *wire.ReportMessage) { m.ReportID = strings.Repeat("k", wire.MaxReportIDLen+1) }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		msg := valid
		tc.mutate(&msg)
		status, body := postReport(t, ts.URL, msg)
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
	}
	if status, body := postReport(t, ts.URL, []byte(`{"group":`)); status != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d (%s)", status, body)
	}
	huge := []byte(`{"report_id":"` + strings.Repeat("a", maxReportBody) + `"}`)
	if status, body := postReport(t, ts.URL, huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s)", status, body)
	}

	// Nothing above was counted.
	if st, _ := cl.Status(ctx); st.Reports != 0 || st.DedupEntries != 0 {
		t.Fatalf("malformed reports leaked into the round: %+v", st)
	}

	// First accept 204; honest retry 200; key reuse with a new payload 409 —
	// and exactly one counted report throughout.
	if status, body := postReport(t, ts.URL, valid); status != http.StatusNoContent {
		t.Fatalf("valid report: status %d (%s)", status, body)
	}
	if status, body := postReport(t, ts.URL, valid); status != http.StatusOK {
		t.Errorf("retry: status %d (%s), want 200", status, body)
	}
	hijack := valid
	hijack.Value++
	if g0.L() == 1 { // degenerate single-cell grid: flip group instead
		hijack = valid
		hijack.Group = 1
		hijack.Proto = specs[1].Proto.String()
	}
	if status, body := postReport(t, ts.URL, hijack); status != http.StatusConflict {
		t.Errorf("key reuse with different payload: status %d (%s), want 409", status, body)
	}
	if st, _ := cl.Status(ctx); st.Reports != 1 || st.DedupEntries != 1 {
		t.Fatalf("dedup accounting off: %+v", st)
	}
}
