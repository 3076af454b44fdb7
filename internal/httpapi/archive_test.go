package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/query"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

func mustParse(t *testing.T, schema *domain.Schema, where string) query.Query {
	t.Helper()
	q, err := query.Parse(where, schema)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func escaped(where string) string { return url.QueryEscape(where) }

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// archiveHarness boots one server the way cmd/felipserver does with
// -wal + -archive: a snapshot store stamped with the server's plan
// fingerprint, then Recover over the WAL segment chain.
type archiveHarness struct {
	srv   *Server
	store *archive.Store
	segs  *reportlog.Segments
}

func newArchiveHarness(t *testing.T, dir string, n int) *archiveHarness {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))
	store, err := archive.Open(filepath.Join(dir, "arch"), archive.Options{
		PlanFingerprint: srv.PlanFingerprint(),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseArchive(store, segs); err != nil {
		t.Fatal(err)
	}
	if err := srv.Recover(segs, 1); err != nil {
		t.Fatal(err)
	}
	return &archiveHarness{srv: srv, store: store, segs: segs}
}

// The acceptance path of the subsystem end to end: finalize archives the
// round and truncates its WAL segment; a restart restores from the snapshot
// plus only the round-2 tail; the restored round answers bit-identically; and
// the archived round stays queryable by round targeting after round 2 takes
// over the serving plane.
func TestArchiveRestartSnapshotPlusTail(t *testing.T) {
	const n = 600
	dir := t.TempDir()
	ctx := context.Background()
	wheres := []string{"num0=8..23", "num0=0..15; cat0=0,1", "num1=4..27; cat1=1,2"}

	h := newArchiveHarness(t, dir, n)
	ts := httptest.NewServer(h.srv.Handler())
	cl := Dial(ts.URL, ts.Client())
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 41)
	reportAll(t, cl, ds, 43)
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	want1 := make([]float64, len(wheres))
	for i, where := range wheres {
		resp, err := cl.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		want1[i] = resp.Estimate
	}

	// Finalize archived round 1 and reclaimed its segment.
	if got := h.store.Rounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("archived rounds after finalize = %v, want [1]", got)
	}
	if _, err := os.Stat(h.segs.Path(1)); !os.IsNotExist(err) {
		t.Fatal("round-1 WAL segment survived its snapshot")
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsRetained != 1 {
		t.Fatalf("rounds_retained = %d, want 1", st.RoundsRetained)
	}

	// Open round 2 and collect half of it, then "crash".
	if _, err := cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}
	plan, _ := cl.Plan(ctx)
	specs, _ := plan.Specs()
	ds2 := dataset.NewUniform().Generate(schema, n, 47)
	device, err := core.NewClient(specs, plan.Epsilon, 53)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n/2; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds2.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: snapshot first, then only the tail segments.
	h2 := newArchiveHarness(t, dir, n)
	tail, err := h2.segs.Existing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0] != 2 {
		t.Fatalf("tail segments = %v, want [2]", tail)
	}
	ts2 := httptest.NewServer(h2.srv.Handler())
	defer ts2.Close()
	defer h2.srv.Close()
	cl2 := Dial(ts2.URL, ts2.Client())

	// The restored round answers bit-identically and the status says how it
	// got there.
	for i, where := range wheres {
		resp, err := cl2.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Round != 1 || resp.Estimate != want1[i] {
			t.Fatalf("restored %q = %+v, want round 1 estimate %v", where, resp, want1[i])
		}
	}
	st, err = cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Restored clears once the tail segment resumes: the server is a normal
	// durable server again, collecting round 2 against its own WAL.
	if st.Restored || !st.Durable || st.Round != 2 || st.ServedRound != 1 || st.Reports != n/2 {
		t.Fatalf("restarted status = %+v", st)
	}

	// Finish round 2.
	for row := n / 2; row < n; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds2.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl2.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	if count, err := cl2.Finalize(ctx); err != nil || count != n {
		t.Fatalf("round-2 finalize: %d, %v", count, err)
	}
	if got := h2.store.Rounds(); len(got) != 2 {
		t.Fatalf("archived rounds = %v, want [1 2]", got)
	}
	if _, err := os.Stat(h2.segs.Path(2)); !os.IsNotExist(err) {
		t.Fatal("round-2 WAL segment survived its snapshot")
	}

	// Round targeting: round 2 serves live, round 1 from the archive —
	// still bit-identical to what it answered while serving.
	for i, where := range wheres {
		resp, err := cl2.QueryRound(ctx, 1, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != want1[i] {
			t.Fatalf("archived round-1 %q = %v, want %v", where, resp.Estimate, want1[i])
		}
	}
	if resp, err := cl2.Query(ctx, wheres[0]); err != nil || resp.Round != 2 {
		t.Fatalf("live query: %+v, %v", resp, err)
	}
	if _, err := cl2.QueryRound(ctx, 9, wheres[0]); err == nil {
		t.Fatal("query for a never-archived round answered")
	}

	// The listing names both rounds, with the served flag on round 2.
	rounds, err := cl2.Rounds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds.Rounds) != 2 || rounds.Served != 2 || rounds.Current != 2 {
		t.Fatalf("rounds listing = %+v", rounds)
	}
	if ri := rounds.Rounds[0]; ri.Round != 1 || !ri.Archived || ri.Served || ri.Reports != n {
		t.Fatalf("round-1 listing = %+v", ri)
	}
	if ri := rounds.Rounds[1]; ri.Round != 2 || !ri.Archived || !ri.Served || ri.Reports != n {
		t.Fatalf("round-2 listing = %+v", ri)
	}

	// Window aggregates over the archive reproduce the store's own answer.
	q := mustParse(t, h2.srv.schema, wheres[0])
	wantAll, err := h2.store.AnswerRange(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var winResp wire.QueryResponse
	getJSON(t, ts2.URL+"/v1/query?where="+escaped(wheres[0])+"&rounds=all", &winResp)
	if winResp.Estimate != wantAll || winResp.Round != 2 || winResp.N != 2*n {
		t.Fatalf("rounds=all response = %+v, want estimate %v over N=%d", winResp, wantAll, 2*n)
	}
	wantDecay, err := h2.store.AnswerDecayed(q, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts2.URL+"/v1/query?where="+escaped(wheres[0])+"&rounds=all&halflife=1", &winResp)
	if winResp.Estimate != wantDecay {
		t.Fatalf("halflife response = %v, want %v", winResp.Estimate, wantDecay)
	}

	// A batch naming an archived round answers the whole batch from it.
	var batch wire.BatchQueryResponse
	postJSON(t, ts2.URL+"/v1/query", wire.BatchQueryRequest{Queries: wheres, Round: 1}, &batch)
	if batch.Round != 1 || batch.N != n {
		t.Fatalf("round-1 batch metadata: %+v", batch)
	}
	for i, item := range batch.Results {
		if item.Error != "" || item.Estimate != want1[i] {
			t.Fatalf("round-1 batch item %d = %+v, want %v", i, item, want1[i])
		}
	}
}

// Chaos drill for the ordering invariant: a crash after the snapshot fsync
// but before the WAL truncate leaves both the snapshot and the stale segment
// on disk. Recovery must prefer the snapshot, drop the stale segment, and
// answer bit-identically to both the pre-crash server and a pure WAL replay.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	const n = 500
	dir := t.TempDir()
	ctx := context.Background()
	wheres := []string{"num0=8..23", "num0=0..15; cat0=0,1"}
	schema := dataset.MixedSchema(2, 32, 2, 4)
	opts := core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11}
	segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))

	// The pre-crash server archives but never truncates (the crash window):
	// attach the store without the segment chain.
	srv, err := NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	store, err := archive.Open(filepath.Join(dir, "arch"), archive.Options{
		PlanFingerprint: srv.PlanFingerprint(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseArchive(store, nil); err != nil {
		t.Fatal(err)
	}
	l1, recs, err := segs.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l1, recs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cl := Dial(ts.URL, ts.Client())
	ds := dataset.NewNormal().Generate(schema, n, 61)
	reportAll(t, cl, ds, 67)
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(wheres))
	for i, where := range wheres {
		resp, err := cl.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Estimate
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segs.Path(1)); err != nil {
		t.Fatal("test setup: the stale segment should still exist")
	}
	if got := store.Rounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("archived rounds = %v, want [1]", got)
	}

	// Recovery A: pure WAL replay of the stale segment (what a server without
	// the archive would do).
	if recsR, err := reportlog.VerifySegment(mustRead(t, segs.Path(1))); err != nil || len(recsR) <= n {
		// n report records plus the round's finalize marker.
		t.Fatalf("stale segment holds %d records (err %v), want > %d", len(recsR), err, n)
	}
	replaySrv, err := NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	replaySrv.SetLogger(t.Logf)
	if err := replaySrv.Recover(segs, 1); err != nil {
		t.Fatal(err)
	}
	tsR := httptest.NewServer(replaySrv.Handler())
	clR := Dial(tsR.URL, tsR.Client())
	for i, where := range wheres {
		resp, err := clR.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != want[i] {
			t.Fatalf("WAL replay %q = %v, want %v", where, resp.Estimate, want[i])
		}
	}
	tsR.Close()
	replaySrv.Close()

	// Recovery B: snapshot-first. The stale segment must be dropped, not
	// replayed over the restored round, and the answers must match exactly.
	h := newArchiveHarness(t, dir, n)
	if _, err := os.Stat(h.segs.Path(1)); !os.IsNotExist(err) {
		t.Fatal("stale segment survived the snapshot-first recovery")
	}
	ts2 := httptest.NewServer(h.srv.Handler())
	defer ts2.Close()
	defer h.srv.Close()
	cl2 := Dial(ts2.URL, ts2.Client())
	for i, where := range wheres {
		resp, err := cl2.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Round != 1 || resp.Estimate != want[i] {
			t.Fatalf("snapshot recovery %q = %+v, want %v", where, resp, want[i])
		}
	}
	st, err := cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || !st.Durable || !st.Finalized || st.Round != 1 || st.Reports != n {
		t.Fatalf("snapshot-recovered status = %+v", st)
	}
	// Life goes on: the next round opens a fresh segment and finalizes.
	if round, err := cl2.NextRound(ctx); err != nil || round != 2 {
		t.Fatalf("nextround after recovery: %d, %v", round, err)
	}
	plan, _ := cl2.Plan(ctx)
	specs, _ := plan.Specs()
	device, err := core.NewClient(specs, plan.Epsilon, 71)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		rep, err := device.Perturb(row%len(specs), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl2.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	if count, err := cl2.Finalize(ctx); err != nil || count != n {
		t.Fatalf("round-2 finalize: %d, %v", count, err)
	}
	if got := h.store.Rounds(); len(got) != 2 {
		t.Fatalf("archived rounds = %v, want [1 2]", got)
	}
}

// A server with no archive must refuse a foreign-round query loudly — never
// answer it silently from the current round.
func TestRoundTargetingWithoutArchiveRefused(t *testing.T) {
	srv, cl, _ := roundServer(t, 1500)
	ctx := context.Background()
	if err := Simulate(srv, "normal", 1500, 21); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryRound(ctx, 1, "num0=8..23"); err != nil {
		t.Fatalf("current round by number refused: %v", err)
	}
	_, err := cl.QueryRound(ctx, 3, "num0=8..23")
	if err == nil {
		t.Fatal("foreign round answered by an archiveless server")
	}
	if !strings.Contains(err.Error(), "keeps no archive") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// /v1/rounds still lists the served round (the listing needs no archive).
	rounds, err := cl.Rounds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds.Rounds) != 1 || !rounds.Rounds[0].Served || rounds.Rounds[0].Archived {
		t.Fatalf("archiveless listing = %+v", rounds)
	}
}

// Pre-archive servers ignore unknown query parameters and answer the current
// round; the client must detect the round mismatch rather than hand the
// caller the wrong round's numbers. Likewise a missing /v1/rounds endpoint
// maps to a distinct error.
func TestClientDetectsPreArchiveServer(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		// An old server: the round parameter does not exist for it.
		json.NewEncoder(w).Encode(wire.QueryResponse{Query: "q", Estimate: 0.25, N: 100, Round: 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())
	ctx := context.Background()

	if resp, err := cl.QueryRound(ctx, 1, "num0=0..3"); err != nil || resp.Estimate != 0.25 {
		t.Fatalf("matching round refused: %+v, %v", resp, err)
	}
	_, err := cl.QueryRound(ctx, 2, "num0=0..3")
	if err == nil {
		t.Fatal("silent wrong-round answer accepted")
	}
	if !strings.Contains(err.Error(), "predates round targeting") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := cl.QueryRound(ctx, 0, "num0=0..3"); err == nil {
		t.Fatal("round 0 accepted")
	}
	_, err = cl.Rounds(ctx)
	if err == nil {
		t.Fatal("missing /v1/rounds endpoint went unnoticed")
	}
	if !strings.Contains(err.Error(), "predates the archive") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
