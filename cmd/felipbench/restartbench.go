package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// restartCase compares the two cold-restart paths over the same finalized
// round: replaying the round's full WAL segment versus restoring its archived
// snapshot. Both paths run the real server restart (Server.Recover, which
// ends with the serving warmup) against the real on-disk artifacts.
type restartCase struct {
	N          int   `json:"n"`
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// SnapshotBytes is the archived round's on-disk envelope size — the
	// durable state the snapshot path restarts from instead of the WAL.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// ReplayMS is time-to-serving for the WAL path: open + checksum the
	// segment, revalidate and re-count every report, re-finalize, build and
	// warm the engine. RestoreMS is the same milestone for the snapshot path:
	// scan the archive, load + CRC-check the snapshot, rebuild the aggregator
	// and engine, warm. Best of -reps each.
	ReplayMS  float64 `json:"replay_ms"`
	RestoreMS float64 `json:"restore_ms"`
	Speedup   float64 `json:"speedup"`
	// BitIdentical reports that both restarted servers answered every probe
	// query with exactly equal float64 estimates, in every repetition.
	BitIdentical bool `json:"bit_identical"`
}

type restartReport struct {
	Timestamp   string        `json:"timestamp"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	N           int           `json:"n"`
	Epsilon     float64       `json:"epsilon"`
	Reps        int           `json:"reps"`
	Methodology string        `json:"methodology"`
	Cases       []restartCase `json:"cases"`
}

const restartMethodology = "One collection round of N reports is made durable twice over: as a full WAL " +
	"segment (the pre-archive recovery source) and as an archived snapshot of the finalized round. " +
	"Each repetition then cold-starts two fresh servers from disk: the replay path attaches the WAL " +
	"(reportlog.Open + per-record revalidation + re-count + re-finalize + engine build) and the " +
	"restore path attaches the archive (snapshot load + CRC check + aggregator restore + engine " +
	"build); both end with the serving warmup a production start performs, and both are timed to " +
	"that same query-ready milestone. Best of -reps per path; bit-identity is every probe query " +
	"answering float64-equal across the two paths in every repetition."

// restartQueries probes both restarted servers; MixedSchema(2, 32, 2, 4)
// names its attributes num0, num1, cat0, cat1.
var restartQueries = []string{
	"num0=0..15",
	"num0=8..23",
	"num1=24..31",
	"cat0=0,1",
	"num0=0..15; cat0=0,1",
	"num1=4..27; cat1=1,2",
}

// runRestartBench measures cold-restart time-to-serving for WAL replay vs
// snapshot restore over the same round and writes the JSON report.
func runRestartBench(outPath string, reps int, smoke bool) error {
	n := 200_000
	if smoke {
		n = 20_000
	}
	if reps < 1 {
		reps = 1
	}
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 1201)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 1203}

	dir, err := os.MkdirTemp("", "felip-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "round.wal")
	archDir := filepath.Join(dir, "archive")

	planner, err := core.NewCollector(schema, n, opts)
	if err != nil {
		return err
	}
	specs := planner.Specs()
	fp := wire.NewPlanMessage(schema, planner.Epsilon(), planner.Mode(), planner.Longitudinal(), planner.Specs()).Fingerprint()
	device, err := core.NewClient(specs, opts.Epsilon, 1207)
	if err != nil {
		return err
	}

	// One round's durable state, built the way a live server builds it: every
	// accepted report appended to the WAL before it counts, the finalize
	// marker closing the segment, and the finalized round archived with its
	// exact pre-estimation partial counts.
	fmt.Fprintf(os.Stderr, "felipbench: -restart generating %d reports\n", n)
	wal, prior, err := reportlog.Open(walPath)
	if err != nil {
		return err
	}
	if len(prior) != 0 {
		wal.Close()
		return fmt.Errorf("fresh wal at %s already holds %d records", walPath, len(prior))
	}
	col, err := core.NewCollector(schema, n, opts)
	if err != nil {
		wal.Close()
		return err
	}
	for row := 0; row < n; row++ {
		id := fmt.Sprintf("u-%d", row)
		rep, err := device.Perturb(httpapi.DeriveGroup(id, len(specs)),
			func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			wal.Close()
			return err
		}
		msg := wire.NewReportMessage(id, rep)
		if err := wal.Append(reportlog.ReportRecord(msg.ReportID, msg.Group, msg.Proto, msg.Value, msg.Seed)); err != nil {
			wal.Close()
			return err
		}
		if err := col.Add(rep); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Append(reportlog.FinalizeRecord(n)); err != nil {
		wal.Close()
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	agg, err := col.Finalize()
	if err != nil {
		return err
	}
	parts, err := col.ExportPartials()
	if err != nil {
		return err
	}
	store, err := archive.Open(archDir, archive.Options{PlanFingerprint: fp})
	if err != nil {
		return err
	}
	if err := store.WriteRound(archive.RoundSnapshot{
		Round:           1,
		PlanFingerprint: fp,
		Reports:         agg.N(),
		Partials:        wire.GridStates(parts),
		Aggregate:       agg.Snapshot(),
	}); err != nil {
		return err
	}

	c := restartCase{N: n, WALRecords: n + 1, BitIdentical: true}
	if fi, err := os.Stat(walPath); err == nil {
		c.WALBytes = fi.Size()
	}
	if _, bytes, ok := store.Info(1); ok {
		c.SnapshotBytes = bytes
	}

	for rep := 0; rep < reps; rep++ {
		replayMS, replayAns, err := restartViaWAL(schema, n, opts, walPath)
		if err != nil {
			return fmt.Errorf("wal replay restart: %w", err)
		}
		restoreMS, restoreAns, err := restartViaSnapshot(schema, n, opts, archDir)
		if err != nil {
			return fmt.Errorf("snapshot restart: %w", err)
		}
		if rep == 0 || replayMS < c.ReplayMS {
			c.ReplayMS = replayMS
		}
		if rep == 0 || restoreMS < c.RestoreMS {
			c.RestoreMS = restoreMS
		}
		for i := range replayAns {
			if replayAns[i] != restoreAns[i] {
				c.BitIdentical = false
			}
		}
		fmt.Fprintf(os.Stderr, "felipbench: -restart rep %d: wal replay %.1fms, snapshot restore %.1fms\n",
			rep+1, replayMS, restoreMS)
	}
	c.Speedup = c.ReplayMS / c.RestoreMS
	fmt.Fprintf(os.Stderr,
		"felipbench: -restart n=%d: wal replay %.1fms vs snapshot restore %.1fms (%.1fx), bit_identical=%v\n",
		n, c.ReplayMS, c.RestoreMS, c.Speedup, c.BitIdentical)

	report := restartReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		N:           n,
		Epsilon:     opts.Epsilon,
		Reps:        reps,
		Methodology: restartMethodology,
		Cases:       []restartCase{c},
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "felipbench: wrote %s\n", outPath)
	if !c.BitIdentical {
		return fmt.Errorf("-restart: WAL replay and snapshot restore answered the probes differently")
	}
	return nil
}

// restartViaWAL cold-starts a server from the round's WAL segment — the
// pre-archive recovery path — and times it to query-ready, then probes it.
func restartViaWAL(schema *domain.Schema, n int, opts core.Options, walPath string) (float64, []float64, error) {
	start := time.Now()
	srv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	if err := srv.Recover(reportlog.NewSegments(walPath), 1); err != nil {
		return 0, nil, err
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	ans, err := probeServer(srv)
	return ms, ans, err
}

// restartViaSnapshot cold-starts a server from the archived round and times
// it to query-ready, then probes it. The round's own WAL segment is gone in
// this scenario (deleted once the archive held the round), so the archive is
// the only recovery source.
func restartViaSnapshot(schema *domain.Schema, n int, opts core.Options, archDir string) (float64, []float64, error) {
	start := time.Now()
	srv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	store, err := archive.Open(archDir, archive.Options{PlanFingerprint: srv.PlanFingerprint()})
	if err != nil {
		return 0, nil, err
	}
	if err := srv.UseArchive(store, nil); err != nil {
		return 0, nil, err
	}
	if err := srv.Recover(nil, 1); err != nil {
		return 0, nil, err
	}
	if srv.Round() != 1 {
		return 0, nil, fmt.Errorf("restored round %d, want 1", srv.Round())
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	ans, err := probeServer(srv)
	return ms, ans, err
}

// probeServer answers restartQueries through the server's own HTTP handler
// (one batch round trip) and returns the estimates in query order.
func probeServer(srv *httpapi.Server) ([]float64, error) {
	body, err := json.Marshal(wire.BatchQueryRequest{Queries: restartQueries})
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		return nil, fmt.Errorf("batch query: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp wire.BatchQueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(restartQueries) {
		return nil, fmt.Errorf("batch query: %d results for %d queries", len(resp.Results), len(restartQueries))
	}
	out := make([]float64, len(resp.Results))
	for i, item := range resp.Results {
		if item.Error != "" {
			return nil, fmt.Errorf("query %q: %s", item.Query, item.Error)
		}
		out[i] = item.Estimate
	}
	return out, nil
}
