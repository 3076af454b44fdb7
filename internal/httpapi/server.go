// Package httpapi exposes a FELIP collection round over HTTP — the
// deployment architecture the paper assumes (untrusted aggregator, users
// submitting ε-LDP reports from their own devices) — plus the matching Go
// client.
//
// Endpoints (JSON):
//
//	GET  /v1/plan      the published collection plan (wire.PlanMessage)
//	GET  /v1/assign    {"group": g} — next user-group assignment
//	POST /v1/report    one wire.ReportMessage; 204 first accept, 200 replay
//	POST /v1/finalize  close the round; {"reports": n}
//	GET  /v1/query     ?where=<expr> — wire.QueryResponse (409 until finalized)
//	POST /v1/query     wire.BatchQueryRequest — answers N queries concurrently
//	POST /v1/nextround open collection round k+1; round k keeps serving
//	GET  /v1/status    round progress + durability counters (see Status)
//	GET  /v1/healthz   liveness probe; always {"ok": true}
//
// The server separates the ingest plane from the serving plane: finalizing a
// round builds an immutable serve.Engine and swaps it in behind an atomic
// pointer, so queries never contend with report ingest. POST /v1/nextround
// then opens a fresh collector (same plan) for round k+1 while round k keeps
// answering /v1/query — serving an already-published DP output during a new
// collection is pure post-processing and does not touch the ε-LDP argument.
//
// Reports carry a device-chosen idempotency key (report_id). The first
// submission under a key is counted and answered 204; an identical
// resubmission — a device retrying because its acknowledgment was lost — is
// answered 200 without being counted again; a key reused for a different
// payload is refused with 409. On a durable server every counted report is
// in the write-ahead log before it is acknowledged, so a crashed server
// replays the log and resumes the round with nothing double-counted.
//
// A durable server runs one WAL segment per round (reportlog.Segments) and
// comes up through Server.Recover, the one restart path: it restores the
// newest archived round if an archive is attached (UseArchive), replays the
// segments after it, refuses a gap in that chain, archives every round the
// replay re-finalizes, and warms the served engine. A segment is deleted
// only once the archive holds its own round, at a round's close and in
// Recover alike, so a round whose snapshot failed keeps its segment. UseWAL
// attaches and replays a single log file.
//
// The two ingest paths promise different durability: a batch frame
// (POST /v1/reports) is fsynced before its 200, so its acknowledged reports
// survive a machine crash; a single report (POST /v1/report) is acknowledged
// once the OS has its write, which survives a process crash but not a
// machine crash.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/longitudinal"
	"felip/internal/metrics"
	"felip/internal/reportlog"
	"felip/internal/serve"
	"felip/internal/wire"
)

// testHookFinalize, when non-nil, runs after finalize releases the server
// lock and before the collector's estimation starts. Tests use it to probe
// endpoint liveness at a deterministic point inside an in-flight finalize.
var testHookFinalize func()

// maxReportBody caps a POST /v1/report body. A legitimate report is well
// under 200 bytes; the cap only exists so a hostile payload cannot exhaust
// memory.
const maxReportBody = 64 << 10

// Server drives FELIP collection rounds over HTTP: an ingest plane (the
// current round's Collector, guarded by mu) and a serving plane (the last
// finalized round's engine, behind the QueryPlane's atomic pointer).
type Server struct {
	schema *domain.Schema
	planN  int
	opts   core.Options
	plan   wire.PlanMessage
	logf   func(format string, args ...any)
	// mode is the round's reporting mode; every report must claim it (FELIP
	// reports claim it by omission). modeName is its wire spelling ("" for
	// FELIP) and specAttrs each group's primary attribute index, against which
	// non-FELIP reports' attr fields are validated. All three are fixed by the
	// plan, which is identical every round.
	mode      fo.ReportMode
	modeName  string
	specAttrs []int
	// longitudinal holds the round's two-stage memoized-reporting budgets
	// (normalized by the collector), nil on a one-shot server. Every report
	// must match the claim: a longitudinal round refuses one-shot reports and
	// vice versa — mixing the two channels would corrupt the inversion.
	longitudinal *fo.Longitudinal

	// qp answers /v1/query from the last finalized round's engine; empty
	// until the first round finalizes.
	qp *QueryPlane

	mu    sync.RWMutex
	col   *core.Collector
	round int // collection round the collector belongs to (1-based)
	// walFactory opens round k's write-ahead log segment when NextRound runs
	// on a durable server.
	walFactory func(round int) (*reportlog.Log, error)
	agg        *core.Aggregator
	finalN     int
	wal        *reportlog.Log
	closed     bool // a WAL was attached and has been closed
	// dedup holds every accepted report_id with its payload key (dedup.go).
	// It spans rounds: a device retrying its round-k report during round k+1
	// must be answered "duplicate", not double-counted into a new round. WAL
	// replay rebuilds it on restart.
	dedup *dedupIndex
	// finalizing is non-nil while a finalize is in flight; it closes when
	// the attempt's outcome is stored. Estimation runs outside mu so status,
	// health and (refused) reports stay live during finalization.
	finalizing chan struct{}
	finalErr   error
	// wireRejected counts report submissions refused before reaching the
	// collector (malformed body, failed wire validation, oversized,
	// idempotency-key conflicts). The collector counts plan-level rejects.
	wireRejected int
	// modeAccepted/modeRejected split the round's accepted and refused report
	// submissions by the reporting mode they claimed on the wire (display
	// names; unparseable claims charge the round's own mode). With one mode
	// per round the accepted map has a single key, but the rejected map shows
	// exactly which foreign-mode traffic is being refused.
	modeAccepted map[string]int
	modeRejected map[string]int
	// wireBytes totals the accepted reports' on-the-wire bytes by protocol
	// name since the round opened on this process: the JSON body on the
	// single-report path, the frame record on the batch path (frame headers
	// are shared transport overhead and are not attributed). It is the
	// server-side mirror of the client batcher's FrameBytes accounting, and
	// the operator's view of what each oracle's reports actually cost —
	// at mega-domains the per-report size, not the variance, is the axis
	// that separates HR from OUE/OLH.
	wireBytes map[string]int64
	// durable marks a server whose rounds must run against WAL segments.
	// UseWAL and Recover set it; a server Recover restored from an archive
	// snapshot with no segment after it has no log to attach, but its next
	// round must still open one.
	durable bool
	// restored marks a server whose serving plane came from an archive
	// snapshot rather than live collection: the round is finalized, no WAL
	// segment backs it, and the collector holds the snapshot's partial
	// counts, sealed (none if the snapshot carried none).
	restored bool
	// store archives finalized rounds; nil = archiving disabled. segments
	// names the WAL segment chain: a segment is deleted only once the store
	// holds its own round (reclaimSegments), and followers read sealed
	// segments from it.
	store    *archive.Store
	segments *reportlog.Segments

	// shardID names this server when it runs as a cluster shard; it travels
	// in the shard-state message so the coordinator can attribute counters.
	shardID string
	// walReplayed counts report records replayed from the WAL since startup —
	// nonzero means this process recovered from a crash.
	walReplayed int
	// shardState caches the sealed round's exported partial-aggregate state:
	// once the coordinator's first state pull seals the round, every repeat
	// pull (a lost response, a coordinator restart) re-serves the identical
	// message.
	shardState *wire.ShardStateMessage
	// sealedEmpty marks a round replayed from a finalize-of-zero WAL record:
	// the round closed with no reports, so there is no aggregate to rebuild
	// (Finalize refuses an empty round) but the round is over — reports are
	// refused and the next round may open.
	sealedEmpty bool

	// batch is the POST /v1/reports admission scratch, reused across frames
	// under mu.
	batch batch
}

// NewServer plans a round for an expected population of n users.
func NewServer(schema *domain.Schema, n int, opts core.Options) (*Server, error) {
	col, err := core.NewCollector(schema, n, opts)
	if err != nil {
		return nil, err
	}
	specs := col.Specs()
	specAttrs := make([]int, len(specs))
	for i, sp := range specs {
		specAttrs[i] = sp.AttrX
	}
	return &Server{
		schema:       schema,
		planN:        n,
		opts:         opts,
		col:          col,
		round:        1,
		plan:         wire.NewPlanMessage(schema, col.Epsilon(), col.Mode(), col.Longitudinal(), specs),
		mode:         col.Mode(),
		modeName:     wire.ModeName(col.Mode()),
		longitudinal: col.Longitudinal(),
		specAttrs:    specAttrs,
		logf:         log.Printf,
		qp:           NewQueryPlane(schema, log.Printf),
		dedup:        newDedupIndex(),
		batch:        batch{seen: make(map[string]int)},
		modeAccepted: make(map[string]int),
		modeRejected: make(map[string]int),
		wireBytes:    make(map[string]int64),
	}, nil
}

// SetLogger redirects the server's operational log (default log.Printf).
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
	s.qp.logf = logf
}

// SetShardID names this server as a cluster shard; the name travels in the
// shard-state message served at /v1/shard/state.
func (s *Server) SetShardID(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardID = id
}

// UseWAL attaches an opened write-ahead log and replays its records into the
// round: every logged report is re-counted (under its original idempotency
// key) and a logged finalization re-closes the round, so the server resumes
// — or re-serves — exactly the round it crashed out of. Subsequent accepted
// reports are appended to the log before they are acknowledged.
func (s *Server) UseWAL(l *reportlog.Log, records []reportlog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return fmt.Errorf("httpapi: write-ahead log already attached")
	}
	if s.col.N() > 0 || s.agg != nil {
		return fmt.Errorf("httpapi: cannot attach a write-ahead log to a round in progress")
	}
	if err := s.replayLocked(records); err != nil {
		return err
	}
	s.col.ResumeAssignment(s.col.N())
	s.wal = l
	s.durable = true
	return nil
}

// replayLocked re-counts one WAL segment's records into the current round's
// collector. Caller holds s.mu.
func (s *Server) replayLocked(records []reportlog.Record) error {
	for i, rec := range records {
		switch rec.Type {
		case reportlog.TypeReport:
			id := []byte(rec.ReportID)
			if _, dup := s.dedup.get(id); dup {
				return fmt.Errorf("httpapi: wal record %d: duplicate report_id %q", i, rec.ReportID)
			}
			// A record's channel must match the round's plan: a segment
			// written under another mode, or the other side of the
			// longitudinal/one-shot line, holds reports perturbed through a
			// different randomizer, and replaying them would silently corrupt
			// the estimates. Records without a mode (every v1 segment) replay
			// as FELIP.
			rep, _, err := s.checkMessage(wire.ReportMessage{
				ReportID: rec.ReportID, Group: rec.Group, Proto: rec.Proto, Value: rec.Value,
				Seed: rec.Seed, Mode: rec.Mode, Longitudinal: rec.Longitudinal,
			})
			if err == nil {
				err = s.col.Add(rep)
			}
			if err != nil {
				return fmt.Errorf("httpapi: wal record %d: %w", i, err)
			}
			key, _ := packKey(rep) // Add passed Check, so the report packs
			s.dedup.put(id, key)
			s.modeAccepted[s.mode.String()]++
			s.walReplayed++
		case reportlog.TypeFinalize:
			if rec.Reports == 0 && s.col.N() == 0 {
				// The round was sealed empty. There is no aggregate to rebuild
				// (Finalize refuses a round of zero reports) — seal the
				// collector and mark the round closed so the replay chain can
				// continue into the next segment.
				s.col.Seal()
				s.sealedEmpty = true
				continue
			}
			if err := s.finalizeReplayLocked(); err != nil {
				return fmt.Errorf("httpapi: wal record %d: refinalizing: %w", i, err)
			}
		default:
			return fmt.Errorf("httpapi: wal record %d: unknown type %q", i, rec.Type)
		}
	}
	return nil
}

// finalizeReplayLocked re-closes the current round during startup replay —
// no query traffic exists yet, so estimating under the lock is fine — and
// swaps the round's engine in. Matrices are left cold; Recover warms the
// served engine once replay is done. Caller holds s.mu.
func (s *Server) finalizeReplayLocked() error {
	agg, err := s.col.Finalize()
	if err != nil {
		return err
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		return err
	}
	s.agg = agg
	s.finalN = agg.N()
	s.qp.Serve(eng, s.round)
	return nil
}

// openRoundLocked replaces the collector with a fresh one for round+1 —
// BuildPlan is deterministic given schema, n and options, so every round
// publishes the same plan — and resets the per-round state. The serving
// plane is untouched: the previous round keeps answering queries. Caller
// holds s.mu.
func (s *Server) openRoundLocked() error {
	col, err := core.NewCollector(s.schema, s.planN, s.opts)
	if err != nil {
		return err
	}
	s.col = col
	s.round++
	s.agg = nil
	s.finalN = 0
	s.finalErr = nil
	s.wireRejected = 0
	clear(s.modeAccepted)
	clear(s.modeRejected)
	clear(s.wireBytes)
	s.shardState = nil
	s.sealedEmpty = false
	return nil
}

// NextRound opens collection round k+1 while the finalized round k keeps
// serving queries. On a durable server the current segment is closed and the
// factory registered with SetWALFactory opens the next one. Returns the new
// round number.
func (s *Server) NextRound() (int, error) { return s.AdvanceRound(0) }

// AdvanceRound is the idempotent round transition: target names the round the
// caller wants open. target == current round is a replayed transition and
// succeeds without side effects (the coordinator retrying a nextround whose
// acknowledgment was lost must not burn a round); target == current+1
// advances; any other target is a refused jump — a coordinator and shard that
// disagree by more than one round have diverged and must not paper over it.
// target 0 keeps the legacy unconditional advance.
func (s *Server) AdvanceRound(target int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target == s.round {
		return s.round, nil
	}
	if s.closed {
		return 0, fmt.Errorf("httpapi: server shutting down")
	}
	if target != 0 && target != s.round+1 {
		return 0, fmt.Errorf("httpapi: round is %d; cannot jump to round %d", s.round, target)
	}
	if s.agg == nil && s.shardState == nil && !s.sealedEmpty {
		return 0, fmt.Errorf("httpapi: round %d not finalized; finalize before opening the next round", s.round)
	}
	var next *reportlog.Log
	if s.durable {
		if s.walFactory == nil {
			return 0, fmt.Errorf("httpapi: durable server has no WAL factory for round %d (SetWALFactory)", s.round+1)
		}
		var err error
		next, err = s.walFactory(s.round + 1)
		if err != nil {
			return 0, fmt.Errorf("httpapi: opening round %d log: %w", s.round+1, err)
		}
	}
	if err := s.openRoundLocked(); err != nil {
		if next != nil {
			next.Close()
		}
		return 0, err
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.logf("httpapi: closing round %d log: %v", s.round-1, err)
		}
	}
	s.wal = next
	s.restored = false
	return s.round, nil
}

// SetWALFactory registers the opener NextRound uses to create round k's WAL
// segment on a durable server.
func (s *Server) SetWALFactory(f func(round int) (*reportlog.Log, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walFactory = f
}

// Close flushes and closes the write-ahead log, if one is attached. The
// server rejects reports afterwards (durability can no longer be honored).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	s.closed = true
	return err
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/assign", s.handleAssign)
	mux.HandleFunc("POST /v1/report", s.handleReport)
	mux.HandleFunc("POST /v1/reports", s.handleReportBatch)
	mux.HandleFunc("POST /v1/finalize", s.handleFinalize)
	mux.HandleFunc("POST /v1/nextround", s.handleNextRound)
	mux.HandleFunc("GET /v1/query", s.qp.HandleQuery)
	mux.HandleFunc("POST /v1/query", s.qp.HandleQueryBatch)
	mux.HandleFunc("GET /v1/rounds", s.qp.HandleRounds(func() int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.round
	}))
	mux.HandleFunc("POST /v1/shard/state", s.handleShardState)
	mux.HandleFunc("GET /v1/replica/wal", s.handleReplicaWAL)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone already; all we can do is not lose the
		// evidence.
		s.logf("httpapi: encoding %T response: %v", v, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.plan)
}

func (s *Server) handleAssign(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	col := s.col
	finalized := s.roundClosedLocked()
	s.mu.RUnlock()
	if finalized {
		s.writeError(w, http.StatusConflict, fmt.Errorf("collection round already finalized"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"group": col.AssignGroup()})
}

// countingReader counts the bytes read through it — the single-report
// path's measure of a report's on-the-wire cost.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleReport serves POST /v1/report: it decodes and validates one JSON
// report, admits it as a one-record batch, and maps the disposition to the
// HTTP status a batch entry would carry.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxReportBody)
	body := &countingReader{r: r.Body}
	var (
		msg    wire.ReportMessage
		b      batch
		tooBig *http.MaxBytesError
		status = http.StatusBadRequest
		claim  = s.mode
	)
	err := json.NewDecoder(body).Decode(&msg)
	switch {
	case errors.As(err, &tooBig):
		status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("report body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		err = fmt.Errorf("invalid report body: %w", err)
	default:
		sub := submission{id: []byte(msg.ReportID), attr: -1, size: int(body.n)}
		if msg.Attr != nil {
			sub.attr = *msg.Attr
		}
		sub.rep, claim, err = s.checkMessage(msg)
		b.subs = []submission{sub}
	}

	s.mu.Lock()
	if err != nil {
		s.rejectLocked(claim, 1)
	} else {
		status, err = s.admitLocked(&b)
	}
	s.mu.Unlock()
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	switch sub := b.subs[0]; sub.disp {
	case wire.DispositionAccepted:
		w.WriteHeader(http.StatusNoContent)
	case wire.DispositionDuplicate:
		// An honest retry: already counted, tell the device it can stop.
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "duplicate"})
	default:
		s.writeError(w, sub.disp, sub.reason)
	}
}

// finalize closes the round once; subsequent calls return the same count.
// The server lock is dropped while the collector estimates (the collector
// serializes concurrent finalizations itself and refuses new reports) and
// while the round's serving engine is built and warmed, so /v1/status,
// /v1/healthz and /v1/query — still answering from the previous round's
// engine — stay live; concurrent finalize requests wait for the in-flight
// attempt's outcome instead of re-running it. The new engine is swapped in
// fully warmed, before finalize acknowledges, so a client that saw the 200
// can immediately query the new round.
func (s *Server) finalize() (int, error) {
	s.mu.Lock()
	for {
		if s.agg != nil {
			n := s.finalN
			s.mu.Unlock()
			return n, nil
		}
		if s.finalizing == nil {
			break
		}
		inflight := s.finalizing
		s.mu.Unlock()
		<-inflight
		s.mu.Lock()
		if s.finalizing == nil {
			// The attempt settled: either s.agg is set (loop returns it) or
			// it failed and left the error for its waiters.
			if s.agg == nil {
				err := s.finalErr
				s.mu.Unlock()
				return 0, err
			}
		}
	}
	done := make(chan struct{})
	s.finalizing = done
	col := s.col
	round := s.round
	s.mu.Unlock()

	if hook := testHookFinalize; hook != nil {
		hook()
	}

	agg, err := col.Finalize()
	var eng *serve.Engine
	if err == nil {
		eng, err = serve.NewEngine(agg)
	}
	if err == nil {
		err = eng.Warmup()
	}

	s.mu.Lock()
	settle := func() {
		s.finalizing = nil
		close(done)
		s.mu.Unlock()
	}
	if err != nil {
		s.finalErr = err
		settle()
		return 0, err
	}
	if s.wal != nil {
		if err := s.wal.Append(reportlog.FinalizeRecord(agg.N())); err != nil {
			s.finalErr = fmt.Errorf("persisting finalization: %w", err)
			settle()
			return 0, s.finalErr
		}
		if err := s.wal.Sync(); err != nil {
			s.finalErr = fmt.Errorf("syncing report log: %w", err)
			settle()
			return 0, s.finalErr
		}
	}
	s.agg = agg
	n := agg.N()
	s.finalN = n
	s.qp.Serve(eng, round)
	store := s.store
	settle()
	// Archive outside the lock: snapshot fsync is disk I/O and must not block
	// status or the next round's ingest. Ordering is what matters — the WAL
	// finalize record is already synced, so a crash anywhere in here replays;
	// and a segment is deleted only once the archive holds its round.
	if store != nil {
		s.archiveRound(col, agg, round)
		s.reclaimSegments()
	}
	return n, nil
}

func (s *Server) handleFinalize(w http.ResponseWriter, _ *http.Request) {
	n, err := s.finalize()
	if err != nil {
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"reports": n})
}

// handleNextRound accepts an optional body {"round": k} naming the target
// round, making the transition idempotent: repeating an already-applied
// transition answers 200 with the current round, a skip answers 409. An empty
// body keeps the legacy unconditional advance.
func (s *Server) handleNextRound(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Round int `json:"round"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid nextround body: %w", err))
		return
	}
	if req.Round < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("negative target round %d", req.Round))
		return
	}
	round, err := s.AdvanceRound(req.Round)
	if err != nil {
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]int{"round": round})
}

// Status is the operator view of the round returned by GET /v1/status.
type Status struct {
	Reports   int  `json:"reports"`
	Groups    int  `json:"groups"`
	Finalized bool `json:"finalized"`
	// Round is the collection round the collector belongs to (1-based).
	Round int `json:"round"`
	// ServedRound is the round whose engine is answering queries (0 until the
	// first finalize). During a new collection it trails Round by one.
	ServedRound int `json:"served_round,omitempty"`
	// Finalizing reports that the round is closing: estimation is running
	// and new reports are refused, but the final aggregator is not ready.
	Finalizing bool `json:"finalizing,omitempty"`
	// GroupCounts is the number of accepted reports per group.
	GroupCounts []int `json:"group_counts"`
	// Rejected is the number of report submissions refused since the round
	// opened — malformed bodies, failed validation, unknown groups,
	// out-of-range values, idempotency-key conflicts. A nonzero value means
	// misbehaving or malicious clients; before this counter they were
	// dropped invisibly.
	Rejected int `json:"rejected"`
	// Mode is the round's reporting mode ("FELIP", "SPL", "RS+FD").
	Mode string `json:"mode"`
	// Longitudinal echoes the round's two-stage budgets when memoized
	// reporting is on (absent otherwise), and the three accounting figures
	// below state the privacy spend for a device that reported every round so
	// far: EpsPerRound is what a single-round observer learns (ε_1),
	// EpsCumulative what an unbounded all-rounds observer learns — fixed at
	// ε_perm + ε_1, independent of Round — and EpsFreshEquivalent what the
	// same device would have leaked under fresh-ε reporting at the same
	// per-round budget (Round·ε_1, growing without bound).
	Longitudinal       *fo.Longitudinal `json:"longitudinal,omitempty"`
	EpsPerRound        float64          `json:"eps_per_round,omitempty"`
	EpsCumulative      float64          `json:"eps_cumulative,omitempty"`
	EpsFreshEquivalent float64          `json:"eps_fresh_equivalent,omitempty"`
	// ModeAccepted and ModeRejected split the accepted and wire-refused
	// submissions by the mode the report claimed. A round runs one mode, so
	// nonzero rejected counts under another mode mean clients configured for
	// the wrong pipeline are knocking.
	ModeAccepted map[string]int `json:"mode_accepted,omitempty"`
	ModeRejected map[string]int `json:"mode_rejected,omitempty"`
	// WireBytesTotal totals the accepted reports' on-the-wire bytes by
	// protocol since the round opened on this process: JSON body bytes on
	// the single-report path, frame record bytes on the batch path. At
	// mega-domains this is the axis that separates HR (constant ~10-byte
	// records) from the O(L) protocols.
	WireBytesTotal map[string]int64 `json:"wire_bytes_total,omitempty"`
	// Durable reports whether a write-ahead log is attached.
	Durable bool `json:"durable"`
	// WALPos is the log's end offset in bytes (0 when not durable).
	WALPos int64 `json:"wal_pos,omitempty"`
	// DedupEntries is the size of the idempotency-key index. The response
	// also carries dedup_bytes, the memory the index has allocated.
	DedupEntries int `json:"dedup_entries"`
	// ShardID names this server when it runs as a cluster shard.
	ShardID string `json:"shard_id,omitempty"`
	// Sealed reports that the round was sealed by a coordinator state pull:
	// its partial aggregate is exported and new reports are refused.
	Sealed bool `json:"sealed,omitempty"`
	// WALReplayed is the number of report records replayed from the
	// write-ahead log since startup — nonzero means this process recovered
	// from a crash.
	WALReplayed int `json:"wal_replayed,omitempty"`
	// Restored reports that the serving plane was recovered from an archive
	// snapshot rather than rebuilt by WAL replay.
	Restored bool `json:"restored,omitempty"`
	// RoundsRetained is the number of rounds the archive currently holds
	// (0 when archiving is disabled).
	RoundsRetained int `json:"rounds_retained,omitempty"`
	// Metrics is the process-wide instrument snapshot (fold/estimation
	// timers and counters; see internal/metrics).
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	col := s.col
	st := Status{
		Round:        s.round,
		Finalized:    s.agg != nil,
		Finalizing:   s.agg == nil && s.finalizing != nil,
		Durable:      s.wal != nil || s.durable,
		DedupEntries: s.dedup.len(),
		Rejected:     s.wireRejected,
		Mode:         s.mode.String(),
		ShardID:      s.shardID,
		Sealed:       s.shardState != nil || s.sealedEmpty,
		WALReplayed:  s.walReplayed,
		Restored:     s.restored,
	}
	if s.longitudinal != nil {
		acct := longitudinal.Accountant{Cfg: *s.longitudinal}
		st.Longitudinal = s.longitudinal
		st.EpsPerRound = acct.PerRound()
		st.EpsCumulative = acct.Cumulative(s.round)
		st.EpsFreshEquivalent = acct.FreshCumulative(s.round)
	}
	if len(s.modeAccepted) > 0 {
		st.ModeAccepted = make(map[string]int, len(s.modeAccepted))
		for k, v := range s.modeAccepted {
			st.ModeAccepted[k] = v
		}
	}
	if len(s.modeRejected) > 0 {
		st.ModeRejected = make(map[string]int, len(s.modeRejected))
		for k, v := range s.modeRejected {
			st.ModeRejected[k] = v
		}
	}
	if len(s.wireBytes) > 0 {
		st.WireBytesTotal = make(map[string]int64, len(s.wireBytes))
		for k, v := range s.wireBytes {
			st.WireBytesTotal[k] = v
		}
	}
	if s.wal != nil {
		st.WALPos = s.wal.Pos()
	}
	finalN := s.finalN
	store := s.store
	dedupBytes := s.dedup.sizeBytes()
	s.mu.RUnlock()
	if round, ok := s.qp.ServedRound(); ok {
		st.ServedRound = round
	}
	if store != nil {
		st.RoundsRetained = len(store.Rounds())
	}
	st.Rejected += col.Rejected()
	// A finalized round reports its aggregate's population, which a
	// restored round's collector may not hold.
	if st.Finalized {
		st.Reports = finalN
	} else {
		st.Reports = col.N()
	}
	st.Groups = len(s.plan.Grids)
	st.GroupCounts = col.GroupCounts()
	st.Metrics = metrics.Snapshot()
	s.writeJSON(w, http.StatusOK, struct {
		Status
		// DedupBytes is what the idempotency-key index has allocated: its
		// slots plus its id arena (DESIGN.md §14 bounds it per entry).
		DedupBytes int64 `json:"dedup_bytes"`
	}{st, dedupBytes})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
