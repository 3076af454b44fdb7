package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"felip/internal/archive"
	"felip/internal/cluster"
	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/reportlog"
	"felip/internal/serve"
	"felip/internal/wire"
)

// layerPass is the traced run's breakdown below the handler: it feeds the
// workload's own reports straight through each layer's public functions in
// the server's order, timing every call from here.
//
//	ingest:  wire decode → dedup → Collector.Check → reportlog append → Sync →
//	         Collector.Add, then the same input through the whole httpapi
//	         ingest call;
//	close:   cluster.RendezvousFor → ExportPartials → ImportPartials → Finalize →
//	         serve.NewEngine → Warmup → archive.Store.WriteRound;
//	queries: query.Parse → Engine.Answer over the probes and any extra queries.
//
// frames selects the transport the workload uses: binary frames (one
// AppendBatch and one Sync per frame) or JSON reports (one Append each, one
// Sync per round, as the server's single-report path does).
func (e *env) layerPass(reps []wire.BatchReport, frames bool, extraQueries ...string) error {
	if !e.cfg.trace {
		return nil
	}
	reps = reps[:min(len(reps), e.cfg.layerReports)]
	// The measured deployment is stopped; collect its garbage so the pass
	// does not pay for it.
	runtime.GC()
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	dir := filepath.Join(e.cfg.dir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var err error
	if frames {
		err = e.ingestFramesLayers(reps, dir)
	} else {
		err = e.ingestJSONLayers(reps, dir)
	}
	if err != nil {
		return fmt.Errorf("layer pass ingest: %w", err)
	}
	eng, err := e.closeLayers(reps, dir)
	if err != nil {
		return fmt.Errorf("layer pass close: %w", err)
	}
	return e.queryLayers(eng, append(append([]string(nil), e.probes...), extraQueries...))
}

// dedupKey has the shape of the server's idempotency key (report group,
// protocol name, value and seed), so the layer pass's dedup index costs what
// the server's does.
type dedupKey struct {
	group int
	proto string
	value int
	seed  uint64
}

func keyOf(r core.Report) dedupKey {
	return dedupKey{group: r.Group, proto: wire.ProtoName(r.Proto), value: r.Value, seed: r.Seed}
}

// ingestFramesLayers times the frame ingest path layer by layer, per frame.
// The dedup step has no public function: it is timed as the same map work
// the server does, a lookup in an index that spans the pass, a within-frame
// duplicate map, and the insert of each new id.
func (e *env) ingestFramesLayers(reps []wire.BatchReport, dir string) error {
	encoded, err := e.encodeFrames(reps)
	if err != nil {
		return err
	}
	col, err := core.NewCollector(e.schema, planN, e.opts)
	if err != nil {
		return err
	}
	wal, _, err := reportlog.Open(filepath.Join(dir, "layers.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	var (
		fr    wire.FrameReader
		batch []core.Report
		ids   []string
		recs  []reportlog.Record
		index = make(map[string]dedupKey)
		seen  = make(map[string]int)
	)
	for _, f := range encoded {
		cnt := wire.FrameReportCount(f)
		parent := e.tr.newID()
		start := e.tr.now()
		steps := []struct {
			name    string
			reports int
			f       func() error
		}{
			{"wire.decode", cnt, func() error {
				batch, ids = batch[:0], ids[:0]
				if _, err := fr.Reset(f); err != nil {
					return err
				}
				for fr.Next() {
					batch = append(batch, fr.Report)
					ids = append(ids, string(fr.ID))
				}
				return fr.Err()
			}},
			{"httpapi.dedup", cnt, func() error {
				clear(seen)
				for i, id := range ids {
					if _, dup := index[id]; dup {
						return fmt.Errorf("duplicate id %s", id)
					}
					if _, dup := seen[id]; dup {
						return fmt.Errorf("duplicate id %s in frame", id)
					}
					seen[id] = i
				}
				for i, id := range ids {
					index[id] = keyOf(batch[i])
				}
				return nil
			}},
			{"core.check", cnt, func() error { return eachReport(batch, col.Check) }},
			{"reportlog.append", cnt, func() error {
				recs = recs[:0]
				for i, r := range batch {
					recs = append(recs, reportlog.ReportRecord(ids[i], r.Group, wire.ProtoName(r.Proto), r.Value, r.Seed))
				}
				return wal.AppendBatch(recs)
			}},
			{"reportlog.sync", cnt, wal.Sync},
			{"core.add", cnt, func() error { return eachReport(batch, col.Add) }},
		}
		for _, s := range steps {
			if err := e.tr.timed(parent, s.name, s.reports, s.f); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		e.tr.record(span{ID: parent, Name: "layer.frame", Start: start, End: e.tr.now(), Reports: cnt})
	}
	e.layer["reportlog.bytes_per_report"] = float64(wal.Pos()) / float64(len(reps))
	e.layer["reportlog.syncs_per_report"] = float64(len(encoded)) / float64(len(reps))

	n, err := e.startNode("layers-direct", false)
	if err != nil {
		return err
	}
	defer n.stop()
	return e.meterAllocs(len(reps), func() error {
		for _, f := range encoded {
			cnt := wire.FrameReportCount(f)
			err := e.tr.timed(0, "httpapi.ingest", cnt, func() error {
				resp, _, err := n.srv.IngestFrame(f)
				if err == nil && resp.Accepted != cnt {
					err = fmt.Errorf("direct ingest accepted %d of %d", resp.Accepted, cnt)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// ingestJSONLayers times the single-report path layer by layer, in chunks of
// frameReports reports so the span count stays bounded.
func (e *env) ingestJSONLayers(reps []wire.BatchReport, dir string) error {
	bodies := make([][]byte, len(reps))
	for at := 0; at < len(reps); at += frameReports {
		end := min(at+frameReports, len(reps))
		err := e.tr.timed(0, "wire.encode", end-at, func() error {
			for i := at; i < end; i++ {
				b, err := json.Marshal(wire.NewReportMessage(reps[i].ID, reps[i].Report))
				if err != nil {
					return err
				}
				bodies[i] = b
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	col, err := core.NewCollector(e.schema, planN, e.opts)
	if err != nil {
		return err
	}
	wal, _, err := reportlog.Open(filepath.Join(dir, "layers.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	var (
		batch []core.Report
		msgs  []wire.ReportMessage
		index = make(map[string]dedupKey)
	)
	for at := 0; at < len(reps); at += frameReports {
		end := min(at+frameReports, len(reps))
		cnt := end - at
		parent := e.tr.newID()
		start := e.tr.now()
		steps := []struct {
			name string
			f    func() error
		}{
			{"wire.decode", func() error {
				batch, msgs = batch[:0], msgs[:0]
				for _, b := range bodies[at:end] {
					var m wire.ReportMessage
					if err := json.Unmarshal(b, &m); err != nil {
						return err
					}
					if err := m.Validate(); err != nil {
						return err
					}
					r, err := m.Report()
					if err != nil {
						return err
					}
					batch = append(batch, r)
					msgs = append(msgs, m)
				}
				return nil
			}},
			{"httpapi.dedup", func() error {
				for i, m := range msgs {
					if _, dup := index[m.ReportID]; dup {
						return fmt.Errorf("duplicate id %s", m.ReportID)
					}
					index[m.ReportID] = keyOf(batch[i])
				}
				return nil
			}},
			{"core.check", func() error { return eachReport(batch, col.Check) }},
			{"reportlog.append", func() error {
				for _, m := range msgs {
					if err := wal.Append(reportlog.ReportRecord(m.ReportID, m.Group, m.Proto, m.Value, m.Seed)); err != nil {
						return err
					}
				}
				return nil
			}},
			{"core.add", func() error { return eachReport(batch, col.Add) }},
		}
		for _, s := range steps {
			if err := e.tr.timed(parent, s.name, cnt, s.f); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		e.tr.record(span{ID: parent, Name: "layer.frame", Start: start, End: e.tr.now(), Reports: cnt})
	}
	// The single-report path acknowledges unsynced; the round's one sync is
	// the finalize record's.
	if err := e.tr.timed(0, "reportlog.sync", len(reps), wal.Sync); err != nil {
		return err
	}
	e.layer["reportlog.bytes_per_report"] = float64(wal.Pos()) / float64(len(reps))
	e.layer["reportlog.syncs_per_report"] = 1 / float64(len(reps))

	n, err := e.startNode("layers-direct", false)
	if err != nil {
		return err
	}
	defer n.stop()
	h := n.srv.Handler()
	reqs := make([]*http.Request, 0, frameReports)
	return e.meterAllocs(len(reps), func() error {
		for at := 0; at < len(reps); at += frameReports {
			end := min(at+frameReports, len(reps))
			reqs = reqs[:0]
			for _, b := range bodies[at:end] {
				reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(b)))
			}
			err := e.tr.timed(0, "httpapi.ingest", end-at, func() error {
				for _, r := range reqs {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, r)
					if w.Code != http.StatusNoContent {
						return fmt.Errorf("direct report answered %d: %s", w.Code, w.Body.String())
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// meterAllocs runs f and records its heap allocations per report.
func (e *env) meterAllocs(reports int, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	e.layer["httpapi.allocs_per_report"] = float64(after.Mallocs-before.Mallocs) / float64(reports)
	return err
}

func eachReport(batch []core.Report, f func(core.Report) error) error {
	for _, r := range batch {
		if err := f(r); err != nil {
			return err
		}
	}
	return nil
}

// closeLayers times a two-shard close over the reports: routing, shard
// export, the state message, the coordinator's import and estimate, engine
// build and warmup, and the archive write. It returns the warmed engine.
func (e *env) closeLayers(reps []wire.BatchReport, dir string) (*serve.Engine, error) {
	names := []string{cluster.StaticShardName(0), cluster.StaticShardName(1)}
	parts := make([][]core.Report, len(names))
	if err := e.tr.timed(0, "cluster.route", len(reps), func() error {
		for _, br := range reps {
			i := cluster.RendezvousFor(br.ID, names)
			parts[i] = append(parts[i], br.Report)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	merger, err := core.NewCollector(e.schema, planN, e.opts)
	if err != nil {
		return nil, err
	}
	stateBytes := 0
	for i, part := range parts {
		shard, err := core.NewCollector(e.schema, planN, e.opts)
		if err != nil {
			return nil, err
		}
		if err := eachReport(part, shard.Add); err != nil {
			return nil, err
		}
		var states []fo.PartialState
		if err := e.tr.timed(0, "core.export", 0, func() error {
			states, err = shard.ExportPartials()
			return err
		}); err != nil {
			return nil, err
		}
		msg, err := json.Marshal(wire.NewShardStateMessage(names[i], 1, epsilon, fo.ModeFELIP, nil, 0, 0, states))
		if err != nil {
			return nil, err
		}
		stateBytes += len(msg)
		if err := e.tr.timed(0, "core.import", 0, func() error { return merger.ImportPartials(states) }); err != nil {
			return nil, err
		}
	}
	e.layer["wire.state_bytes"] = float64(stateBytes)

	var agg *core.Aggregator
	var eng *serve.Engine
	steps := []struct {
		name string
		f    func() error
	}{
		{"core.finalize", func() (err error) { agg, err = merger.Finalize(); return }},
		{"serve.new_engine", func() (err error) { eng, err = serve.NewEngine(agg); return }},
		{"serve.warmup", func() error { return eng.Warmup() }},
	}
	for _, s := range steps {
		if err := e.tr.timed(0, s.name, 0, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	fp := wire.NewPlanMessage(e.schema, epsilon, fo.ModeFELIP, nil, e.specs).Fingerprint()
	store, err := archive.Open(filepath.Join(dir, "archive"), archive.Options{PlanFingerprint: fp})
	if err != nil {
		return nil, err
	}
	if err := e.tr.timed(0, "archive.write", 0, func() error {
		snap := archive.RoundSnapshot{Round: 1, PlanFingerprint: fp, Reports: agg.N(), Aggregate: agg.Snapshot()}
		states, err := merger.ExportPartials()
		if err != nil {
			return err
		}
		snap.Partials = wire.GridStates(states)
		return store.WriteRound(snap)
	}); err != nil {
		return nil, err
	}
	_, size, _ := store.Info(1)
	e.layer["archive.snapshot_bytes"] = float64(size)
	return eng, nil
}

// queryLayers times parsing and answering each query on the engine, and the
// response-matrix cache's hit ratio over those answers.
func (e *env) queryLayers(eng *serve.Engine, wheres []string) error {
	before := metrics.Snapshot()
	for _, where := range wheres {
		var q query.Query
		if err := e.tr.timed(0, "query.parse", 0, func() (err error) {
			q, err = query.Parse(where, e.schema)
			return
		}); err != nil {
			return err
		}
		if err := e.tr.timed(0, "serve.answer", 0, func() error {
			_, err := eng.Answer(q)
			return err
		}); err != nil {
			return err
		}
	}
	after := metrics.Snapshot()
	hits := after["serve.matrix_cache.hit"] - before["serve.matrix_cache.hit"]
	misses := after["serve.matrix_cache.miss"] - before["serve.matrix_cache.miss"]
	if hits+misses > 0 {
		e.layer["serve.matrix_cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return nil
}
