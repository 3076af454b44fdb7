package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// These tests pin the round lifecycle (DESIGN.md §10): what every event does
// in every phase a round can be in, and that a close which finishes after the
// round has moved on settles into its own round or nowhere.

// callHTTP sends one request and returns the status and body.
func callHTTP(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// rawPost posts an empty body and returns the status and body; a transport
// failure reads as status 0 with the error's text. It calls no t method, so
// it runs off the test goroutine.
func rawPost(url string) (int, []byte) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, body
}

// finalizeRecords counts the finalize records in a WAL segment; a missing
// segment holds none.
func finalizeRecords(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	recs, err := reportlog.VerifySegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rec := range recs {
		if rec.Type == reportlog.TypeFinalize {
			n++
		}
	}
	return n
}

// planSpecs is the grid plan srv publishes.
func planSpecs(t *testing.T, srv *Server) []core.GridSpec {
	t.Helper()
	specs, err := srv.plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// recoverInto boots a fresh shard server over segs through Recover, the
// restart path, and returns Recover's error instead of failing the test.
func recoverInto(t *testing.T, segs *reportlog.Segments, n int, opts core.Options, archDir string) (*Server, error) {
	t.Helper()
	srv, err := NewServer(dataset.MixedSchema(2, 32, 2, 4), n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(func(string, ...any) {})
	srv.SetShardID("shard0")
	if archDir != "" {
		store, err := archive.Open(archDir, archive.Options{PlanFingerprint: srv.PlanFingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.UseArchive(store, segs); err != nil {
			t.Fatal(err)
		}
	}
	return srv, srv.Recover(segs, 1)
}

// holdFinalize starts POST /v1/finalize and holds it inside the finalize,
// with the server lock released, until release is called; done yields its
// HTTP status.
func holdFinalize(t *testing.T, base string) (release func(), done <-chan int) {
	t.Helper()
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookFinalize = func() {
		once.Do(func() { close(held) })
		<-gate
	}
	result := make(chan int, 1)
	go func() {
		code, _ := rawPost(base + "/v1/finalize")
		result <- code
	}()
	<-held
	var released sync.Once
	return func() {
		released.Do(func() {
			testHookFinalize = nil
			close(gate)
		})
	}, result
}

// TestFinalizeAfterAdvanceStaysInItsRound: a shard sealed by a state pull
// is finalized, and the finalize is held open while the coordinator's
// advance to round 2 arrives. The server must refuse the advance until the
// finalize settles, so round 1's close never lands in round 2: round 2 opens
// empty, its segment holds no finalize record, and a restart lands in it.
// An advance let through because the pull had sealed the round would leave
// the finalize to write round 1's close into round 2.
func TestFinalizeAfterAdvanceStaysInItsRound(t *testing.T) {
	const n = 400
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.6, Seed: 31}
	h := newDurableShardHarness(t, t.TempDir(), n, opts)
	ctx := context.Background()
	h.submit("r1", 120, 61)
	if _, err := h.cl.ShardState(ctx); err != nil {
		t.Fatal(err)
	}

	release, finalized := holdFinalize(t, h.ts.URL)
	defer release()
	_, advErr := h.cl.NextRoundTo(ctx, 2)
	release()
	t.Logf("advance while finalizing: %v; the finalize: HTTP %d", advErr, <-finalized)
	if _, err := h.cl.NextRoundTo(ctx, 2); err != nil {
		t.Fatalf("advance once the finalize settled: %v", err)
	}

	st := h.srv.Status()
	if st.Round != 2 || st.Finalized || st.Sealed || st.Reports != 0 {
		t.Errorf("round 2: round %d, finalized %v, sealed %v, %d reports; want round 2 open with 0 reports",
			st.Round, st.Finalized, st.Sealed, st.Reports)
	}
	if got := finalizeRecords(t, h.segs.Path(2)); got != 0 {
		t.Errorf("round 2's segment holds %d finalize records, want 0", got)
	}
	if got := finalizeRecords(t, h.segs.Path(1)); got != 2 {
		t.Errorf("round 1's segment holds %d finalize records, want 2 (the seal's and the finalize's)", got)
	}
	h.crash()
	srv, err := recoverInto(t, h.segs, n, opts, "")
	defer srv.Close()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st := srv.Status(); st.Round != 2 || st.Finalized || st.Sealed || st.ServedRound != 1 {
		t.Errorf("restart landed in round %d (finalized %v, sealed %v, served %d), want round 2 open with round 1 served",
			st.Round, st.Finalized, st.Sealed, st.ServedRound)
	}
}

// TestStatePullAfterAdvanceStaysInItsRound: a state pull is held after it
// sealed round 1, while a second pull exports and caches the round and the
// coordinator advances to round 2. The held pull must then answer round 1's
// cached message byte for byte and write nothing, so round 2 stays open and
// its segment stays clean, rather than sealing round 2 with round 1's counts.
func TestStatePullAfterAdvanceStaysInItsRound(t *testing.T) {
	const n = 400
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.6, Seed: 31}
	h := newDurableShardHarness(t, t.TempDir(), n, opts)
	ctx := context.Background()
	h.submit("r1", 120, 61)

	held, gate := make(chan struct{}), make(chan struct{})
	var first sync.Once
	testHookShardExport = func() {
		hold := false
		first.Do(func() { hold = true })
		if hold {
			close(held)
			<-gate
		}
	}
	defer func() { testHookShardExport = nil }()
	type pulled struct {
		code int
		body []byte
	}
	late := make(chan pulled, 1)
	go func() {
		code, body := rawPost(h.ts.URL + "/v1/shard/state")
		late <- pulled{code, body}
	}()
	<-held
	code, sealed := callHTTP(t, http.MethodPost, h.ts.URL+"/v1/shard/state", nil)
	if code != http.StatusOK {
		t.Fatalf("second pull: HTTP %d %s", code, sealed)
	}
	if _, err := h.cl.NextRoundTo(ctx, 2); err != nil {
		t.Fatal(err)
	}
	close(gate)
	got := <-late
	if got.code != http.StatusOK || !bytes.Equal(got.body, sealed) {
		t.Errorf("late pull: HTTP %d %s\nwant round 1's message %s", got.code, got.body, sealed)
	}

	st := h.srv.Status()
	if st.Round != 2 || st.Sealed || st.Reports != 0 {
		t.Errorf("round 2: round %d, sealed %v, %d reports; want round 2 open with 0 reports", st.Round, st.Sealed, st.Reports)
	}
	if got := finalizeRecords(t, h.segs.Path(2)); got != 0 {
		t.Errorf("round 2's segment holds %d finalize records, want 0", got)
	}
	probe := validProbe(planSpecs(t, h.srv), fo.ModeFELIP, "round-2", 0)
	if code := submitJSON(t, h.ts.URL, probe); code != http.StatusNoContent {
		t.Errorf("report into round 2: HTTP %d, want 204", code)
	}
	h.crash()
	srv, err := recoverInto(t, h.segs, n, opts, "")
	defer srv.Close()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st := srv.Status(); st.Round != 2 || st.Sealed || st.Reports != 1 {
		t.Errorf("restart landed in round %d (sealed %v, %d reports), want round 2 open with 1 report", st.Round, st.Sealed, st.Reports)
	}
}

// TestCloseEndsServerWithoutSegment: a durable server restored from its
// archive with no segment after the restored round has no log open, and
// Close must end it all the same: a second Close is harmless, and the next
// round does not open (no segment is created), nor do reports or pulls land.
func TestCloseEndsServerWithoutSegment(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	archDir := filepath.Join(dir, "arch")
	segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))
	nd := bootRecovered(t, n, archDir, segs)
	nd.collect(t, n, 401, true)
	if _, err := nd.cl.Finalize(context.Background()); err != nil {
		t.Fatal(err)
	}
	nd.stop(t)

	nd = bootRecovered(t, n, archDir, segs)
	defer nd.ts.Close()
	if st := nd.srv.Status(); !st.Restored || nd.srv.WALPos() != 0 {
		t.Fatalf("want a server restored from the archive with no segment open: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if err := nd.srv.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if round, err := nd.srv.AdvanceRound(2); err == nil {
		t.Errorf("AdvanceRound(2) after Close opened round %d", round)
	}
	if _, err := os.Stat(segs.Path(2)); !os.IsNotExist(err) {
		t.Errorf("round 2's segment exists after Close (stat: %v)", err)
	}
	probe := validProbe(planSpecs(t, nd.srv), fo.ModeFELIP, "after-close", 0)
	if code := submitJSON(t, nd.ts.URL, probe); code != http.StatusServiceUnavailable {
		t.Errorf("report after Close: HTTP %d, want 503", code)
	}
	if code, body := callHTTP(t, http.MethodPost, nd.ts.URL+"/v1/shard/state", nil); code != http.StatusServiceUnavailable {
		t.Errorf("state pull after Close: HTTP %d %s, want 503", code, body)
	}

	// A second Close is harmless on a server that had a segment open too.
	nd2 := bootRecovered(t, n, "", reportlog.NewSegments(filepath.Join(t.TempDir(), "round.wal")))
	defer nd2.ts.Close()
	for i := 0; i < 2; i++ {
		if err := nd2.srv.Close(); err != nil {
			t.Fatalf("Close %d with a segment open: %v", i+1, err)
		}
	}
}

// The lifecycle table: every row builds a durable shard server in one phase,
// every column applies one event to it, and each cell pins the event's HTTP
// status (a Go call reads 200 on success; a refused FinalizeMerged reads
// 409, a failed Close or Recover 500), the phase the round is in afterwards,
// the /v1/status fields that show it, and the finalize records in the
// current round's segment. The phase is read from /v1/status and from a
// probe report sent last: 503 means Close ended the server. In the
// finalizing rows the event runs while a finalize is held open; the cell is
// read once the finalize is released and settled, and "held" is that
// finalize's own HTTP status. A restart is Close plus a fresh server booted
// through Recover, without or with the archive; the cell reads the new
// server.

const lifecycleN = 200

var lifecycleOpts = core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 71}

// lifecycleCell is one row's server and what the cell has done to it.
type lifecycleCell struct {
	t       *testing.T
	dir     string
	segs    *reportlog.Segments
	archDir string // the archive the row runs with; "" for none
	srv     *Server
	ts      *httptest.Server
	specs   []core.GridSpec
	release func()     // a finalizing row's hold
	held    <-chan int // and its finalize's status
}

func newLifecycleCell(t *testing.T, withArchive bool) *lifecycleCell {
	c := &lifecycleCell{t: t, dir: t.TempDir()}
	c.segs = reportlog.NewSegments(filepath.Join(c.dir, "round.wal"))
	if withArchive {
		c.archDir = filepath.Join(c.dir, "arch")
	}
	if code := c.boot(c.archDir); code != http.StatusOK {
		t.Fatalf("boot: %d", code)
	}
	t.Cleanup(func() {
		if c.release != nil {
			c.release()
		}
		c.ts.Close()
		c.srv.Close()
	})
	return c
}

// boot starts a server over the cell's segments through Recover, with the
// archive at archDir unless it is empty: 200, or 500 when Recover failed.
func (c *lifecycleCell) boot(archDir string) int {
	srv, err := recoverInto(c.t, c.segs, lifecycleN, lifecycleOpts, archDir)
	c.srv, c.ts, c.specs = srv, httptest.NewServer(srv.Handler()), planSpecs(c.t, srv)
	if err != nil {
		c.t.Logf("Recover: %v", err)
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// restart is a crash and a boot through Recover.
func (c *lifecycleCell) restart(archDir string) int {
	c.ts.Close()
	c.srv.Close()
	return c.boot(archDir)
}

func (c *lifecycleCell) submit(count int) {
	frame := freshFrames(c.t, c.specs, 1, count)[0]
	if resp, _, err := c.srv.IngestFrame(frame); err != nil || resp.Accepted != count {
		c.t.Fatalf("setup frame: %+v, %v", resp, err)
	}
}

func (c *lifecycleCell) post(path string, body any) int {
	code, _ := callHTTP(c.t, http.MethodPost, c.ts.URL+path, body)
	return code
}

func (c *lifecycleCell) mustPost(path string) {
	if code := c.post(path, nil); code != http.StatusOK {
		c.t.Fatalf("setup POST %s: %d", path, code)
	}
}

// mergeMessage is one shard's state message for the server's current round,
// holding 10 reports.
func (c *lifecycleCell) mergeMessage() wire.ShardStateMessage {
	col, err := core.NewCollector(dataset.MixedSchema(2, 32, 2, 4), lifecycleN, lifecycleOpts)
	if err != nil {
		c.t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := col.Add(validProbe(c.specs, fo.ModeFELIP, "", i%len(c.specs)).rep); err != nil {
			c.t.Fatal(err)
		}
	}
	states, err := col.ExportPartials()
	if err != nil {
		c.t.Fatal(err)
	}
	return wire.NewShardStateMessage("shard-0", c.srv.Round(), lifecycleOpts.Epsilon, fo.ModeFELIP, nil, 0, 0, states)
}

// observe reads the cell after an event that answered code.
func (c *lifecycleCell) observe(code int) string {
	held := ""
	if c.release != nil {
		c.release()
		held = fmt.Sprintf("held %d, ", <-c.held)
	}
	st := c.srv.Status()
	records := finalizeRecords(c.t, c.segs.Path(st.Round))
	probe := submitJSON(c.t, c.ts.URL, validProbe(c.specs, fo.ModeFELIP, "probe", 0))
	phase := "open"
	switch {
	case probe == http.StatusServiceUnavailable:
		phase = "closed"
	case st.Finalizing:
		phase = "finalizing"
	case st.Finalized:
		phase = "finalized"
	case st.Sealed:
		phase = "sealed"
	}
	var flags []string
	for _, f := range []struct {
		on   bool
		name string
	}{{st.Finalized, "finalized"}, {st.Finalizing, "finalizing"}, {st.Sealed, "sealed"}, {st.Restored, "restored"}} {
		if f.on {
			flags = append(flags, f.name)
		}
	}
	return fmt.Sprintf("%s%d → %s: round %d, served %d, reports %d, records %d [%s]",
		held, code, phase, st.Round, st.ServedRound, st.Reports, records, strings.Join(flags, " "))
}

// lifecycleRows builds each phase. Reports arrive as one 40-report frame.
var lifecycleRows = []struct {
	name    string
	archive bool
	setup   func(c *lifecycleCell)
}{
	{"open", false, func(c *lifecycleCell) { c.submit(40) }},
	{"open/replayed", false, func(c *lifecycleCell) { c.submit(40); c.restart("") }},
	{"finalizing", false, func(c *lifecycleCell) {
		c.submit(40)
		c.release, c.held = holdFinalize(c.t, c.ts.URL)
	}},
	{"finalizing/sealed", false, func(c *lifecycleCell) {
		c.submit(40)
		c.mustPost("/v1/shard/state")
		c.release, c.held = holdFinalize(c.t, c.ts.URL)
	}},
	{"sealed", false, func(c *lifecycleCell) { c.submit(40); c.mustPost("/v1/shard/state") }},
	{"sealed/empty", false, func(c *lifecycleCell) { c.mustPost("/v1/shard/state") }},
	{"sealed/empty/replayed", false, func(c *lifecycleCell) { c.mustPost("/v1/shard/state"); c.restart("") }},
	{"finalized", false, func(c *lifecycleCell) { c.submit(40); c.mustPost("/v1/finalize") }},
	{"finalized/replayed", false, func(c *lifecycleCell) { c.submit(40); c.mustPost("/v1/finalize"); c.restart("") }},
	{"finalized/restored", true, func(c *lifecycleCell) { c.submit(40); c.mustPost("/v1/finalize"); c.restart(c.archDir) }},
	{"finalized/restored/no-partials", true, func(c *lifecycleCell) {
		c.submit(40)
		c.mustPost("/v1/finalize")
		c.ts.Close()
		c.srv.Close()
		store, err := archive.Open(c.archDir, archive.Options{})
		if err != nil {
			c.t.Fatal(err)
		}
		snap, err := store.Load(1)
		if err != nil {
			c.t.Fatal(err)
		}
		snap.Partials = nil
		if err := store.WriteRound(snap); err != nil {
			c.t.Fatal(err)
		}
		c.boot(c.archDir)
	}},
	{"closed", false, func(c *lifecycleCell) {
		c.submit(40)
		if err := c.srv.Close(); err != nil {
			c.t.Fatal(err)
		}
	}},
}

// lifecycleEvents applies each event and returns its status. An event that
// may wait for a held finalize to settle is marked waits; every cell of the
// others depends on the finalize still being held.
var lifecycleEvents = []struct {
	name  string
	waits bool
	apply func(c *lifecycleCell) int
}{
	{"report", false, func(c *lifecycleCell) int {
		return submitJSON(c.t, c.ts.URL, validProbe(c.specs, fo.ModeFELIP, "event-report", 1))
	}},
	{"frame", false, func(c *lifecycleCell) int {
		return submitFrame(c.t, c.srv, validProbe(c.specs, fo.ModeFELIP, "event-frame", 1))
	}},
	{"assign", false, func(c *lifecycleCell) int {
		code, _ := callHTTP(c.t, http.MethodGet, c.ts.URL+"/v1/assign", nil)
		return code
	}},
	{"pull", true, func(c *lifecycleCell) int { return c.post("/v1/shard/state", nil) }},
	{"finalize", true, func(c *lifecycleCell) int { return c.post("/v1/finalize", nil) }},
	{"merge", true, func(c *lifecycleCell) int {
		if _, err := c.srv.FinalizeMerged([]wire.ShardStateMessage{c.mergeMessage()}); err != nil {
			return http.StatusConflict
		}
		return http.StatusOK
	}},
	{"advance=current", false, func(c *lifecycleCell) int {
		return c.post("/v1/nextround", map[string]int{"round": c.srv.Round()})
	}},
	{"advance=next", false, func(c *lifecycleCell) int {
		return c.post("/v1/nextround", map[string]int{"round": c.srv.Round() + 1})
	}},
	{"advance=next+1", false, func(c *lifecycleCell) int {
		return c.post("/v1/nextround", map[string]int{"round": c.srv.Round() + 2})
	}},
	{"close", true, func(c *lifecycleCell) int {
		if err := c.srv.Close(); err != nil {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	}},
	{"restart", true, func(c *lifecycleCell) int { return c.restart("") }},
	{"restart+archive", true, func(c *lifecycleCell) int { return c.restart(filepath.Join(c.dir, "arch")) }},
}

// lifecycleTable is the table: row | event | cell, one line per pair.
const lifecycleTable = `
open                           | report          | 204 → open: round 1, served 0, reports 41, records 0 []
open                           | frame           | 204 → open: round 1, served 0, reports 41, records 0 []
open                           | assign          | 200 → open: round 1, served 0, reports 40, records 0 []
open                           | pull            | 200 → sealed: round 1, served 0, reports 40, records 1 [sealed]
open                           | finalize        | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
open                           | merge           | 200 → finalized: round 1, served 1, reports 50, records 1 [finalized]
open                           | advance=current | 200 → open: round 1, served 0, reports 40, records 0 []
open                           | advance=next    | 409 → open: round 1, served 0, reports 40, records 0 []
open                           | advance=next+1  | 409 → open: round 1, served 0, reports 40, records 0 []
open                           | close           | 200 → closed: round 1, served 0, reports 40, records 0 []
open                           | restart         | 200 → open: round 1, served 0, reports 40, records 0 []
open                           | restart+archive | 200 → open: round 1, served 0, reports 40, records 0 []

open/replayed                  | report          | 204 → open: round 1, served 0, reports 41, records 0 []
open/replayed                  | frame           | 204 → open: round 1, served 0, reports 41, records 0 []
open/replayed                  | assign          | 200 → open: round 1, served 0, reports 40, records 0 []
open/replayed                  | pull            | 200 → sealed: round 1, served 0, reports 40, records 1 [sealed]
open/replayed                  | finalize        | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
open/replayed                  | merge           | 200 → finalized: round 1, served 1, reports 50, records 1 [finalized]
open/replayed                  | advance=current | 200 → open: round 1, served 0, reports 40, records 0 []
open/replayed                  | advance=next    | 409 → open: round 1, served 0, reports 40, records 0 []
open/replayed                  | advance=next+1  | 409 → open: round 1, served 0, reports 40, records 0 []
open/replayed                  | close           | 200 → closed: round 1, served 0, reports 40, records 0 []
open/replayed                  | restart         | 200 → open: round 1, served 0, reports 40, records 0 []
open/replayed                  | restart+archive | 200 → open: round 1, served 0, reports 40, records 0 []

finalizing                     | report          | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | frame           | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | assign          | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | pull            | held 200, 200 → finalized: round 1, served 1, reports 40, records 1 [finalized sealed]
finalizing                     | finalize        | held 200, 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | merge           | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | advance=current | held 200, 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | advance=next    | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | advance=next+1  | held 200, 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | close           | held 200, 200 → closed: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | restart         | held 200, 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalizing                     | restart+archive | held 200, 200 → finalized: round 1, served 1, reports 40, records 0 [finalized]

finalizing/sealed              | report          | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | frame           | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | assign          | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | pull            | held 200, 200 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | finalize        | held 200, 200 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | merge           | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | advance=current | held 200, 200 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | advance=next    | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | advance=next+1  | held 200, 409 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | close           | held 200, 200 → closed: round 1, served 1, reports 40, records 2 [finalized sealed]
finalizing/sealed              | restart         | held 200, 200 → finalized: round 1, served 1, reports 40, records 2 [finalized]
finalizing/sealed              | restart+archive | held 200, 200 → finalized: round 1, served 1, reports 40, records 0 [finalized]

sealed                         | report          | 409 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | frame           | 409 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | assign          | 409 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | pull            | 200 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | finalize        | 200 → finalized: round 1, served 1, reports 40, records 2 [finalized sealed]
sealed                         | merge           | 409 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | advance=current | 200 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | advance=next    | 200 → open: round 2, served 0, reports 0, records 0 []
sealed                         | advance=next+1  | 409 → sealed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | close           | 200 → closed: round 1, served 0, reports 40, records 1 [sealed]
sealed                         | restart         | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
sealed                         | restart+archive | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized]

sealed/empty                   | report          | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | frame           | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | assign          | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | pull            | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | finalize        | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | merge           | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | advance=current | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | advance=next    | 200 → open: round 2, served 0, reports 0, records 0 []
sealed/empty                   | advance=next+1  | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | close           | 200 → closed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | restart         | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty                   | restart+archive | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]

sealed/empty/replayed          | report          | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | frame           | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | assign          | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | pull            | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | finalize        | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | merge           | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | advance=current | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | advance=next    | 200 → open: round 2, served 0, reports 0, records 0 []
sealed/empty/replayed          | advance=next+1  | 409 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | close           | 200 → closed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | restart         | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]
sealed/empty/replayed          | restart+archive | 200 → sealed: round 1, served 0, reports 0, records 1 [sealed]

finalized                      | report          | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | frame           | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | assign          | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | pull            | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized sealed]
finalized                      | finalize        | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | merge           | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | advance=current | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | advance=next    | 200 → open: round 2, served 1, reports 0, records 0 []
finalized                      | advance=next+1  | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | close           | 200 → closed: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | restart         | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized                      | restart+archive | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized]

finalized/replayed             | report          | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | frame           | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | assign          | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | pull            | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized sealed]
finalized/replayed             | finalize        | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | merge           | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | advance=current | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | advance=next    | 200 → open: round 2, served 1, reports 0, records 0 []
finalized/replayed             | advance=next+1  | 409 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | close           | 200 → closed: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | restart         | 200 → finalized: round 1, served 1, reports 40, records 1 [finalized]
finalized/replayed             | restart+archive | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized]

finalized/restored             | report          | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | frame           | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | assign          | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | pull            | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized sealed restored]
finalized/restored             | finalize        | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | merge           | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | advance=current | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | advance=next    | 200 → open: round 2, served 1, reports 0, records 0 []
finalized/restored             | advance=next+1  | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | close           | 200 → closed: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored             | restart         | 200 → open: round 1, served 0, reports 0, records 0 []
finalized/restored             | restart+archive | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]

finalized/restored/no-partials | report          | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | frame           | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | assign          | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | pull            | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | finalize        | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | merge           | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | advance=current | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | advance=next    | 200 → open: round 2, served 1, reports 0, records 0 []
finalized/restored/no-partials | advance=next+1  | 409 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | close           | 200 → closed: round 1, served 1, reports 40, records 0 [finalized restored]
finalized/restored/no-partials | restart         | 200 → open: round 1, served 0, reports 0, records 0 []
finalized/restored/no-partials | restart+archive | 200 → finalized: round 1, served 1, reports 40, records 0 [finalized restored]

closed                         | report          | 503 → closed: round 1, served 0, reports 40, records 0 []
closed                         | frame           | 503 → closed: round 1, served 0, reports 40, records 0 []
closed                         | assign          | 503 → closed: round 1, served 0, reports 40, records 0 []
closed                         | pull            | 503 → closed: round 1, served 0, reports 40, records 0 []
closed                         | finalize        | 409 → closed: round 1, served 0, reports 40, records 0 []
closed                         | merge           | 409 → closed: round 1, served 0, reports 40, records 0 []
closed                         | advance=current | 200 → closed: round 1, served 0, reports 40, records 0 []
closed                         | advance=next    | 409 → closed: round 1, served 0, reports 40, records 0 []
closed                         | advance=next+1  | 409 → closed: round 1, served 0, reports 40, records 0 []
closed                         | close           | 200 → closed: round 1, served 0, reports 40, records 0 []
closed                         | restart         | 200 → open: round 1, served 0, reports 40, records 0 []
closed                         | restart+archive | 200 → open: round 1, served 0, reports 40, records 0 []
`

// TestRoundLifecycleTable drives every phase × event pair and pins its cell.
func TestRoundLifecycleTable(t *testing.T) {
	want := make(map[[2]string]string)
	for _, line := range strings.Split(lifecycleTable, "\n") {
		if f := strings.Split(line, " | "); len(f) == 3 {
			want[[2]string{strings.TrimSpace(f[0]), strings.TrimSpace(f[1])}] = f[2]
		}
	}
	if len(want) != len(lifecycleRows)*len(lifecycleEvents) {
		t.Fatalf("the table holds %d cells, want %d", len(want), len(lifecycleRows)*len(lifecycleEvents))
	}
	var got strings.Builder
	for _, row := range lifecycleRows {
		for _, ev := range lifecycleEvents {
			t.Run(row.name+"/"+ev.name, func(t *testing.T) {
				c := newLifecycleCell(t, row.archive)
				row.setup(c)
				if c.release != nil && ev.waits {
					// The held finalize is released once the event has had time
					// to start waiting on it; the cell reads the same either way.
					defer time.AfterFunc(200*time.Millisecond, c.release).Stop()
				}
				code := ev.apply(c)
				cell := c.observe(code)
				fmt.Fprintf(&got, "%s | %s | %s\n", row.name, ev.name, cell)
				if w := want[[2]string{row.name, ev.name}]; cell != w {
					t.Errorf("%s × %s\n got: %s\nwant: %s", row.name, ev.name, cell, w)
				}
			})
		}
	}
	if t.Failed() {
		t.Logf("the table as run:\n%s", got.String())
	}
}
