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
// pointer, so queries never take the ingest lock. POST /v1/nextround then
// opens a fresh collector (same plan) for round k+1 while round k keeps
// answering /v1/query — serving an already-published DP output during a new
// collection is pure post-processing and does not touch the ε-LDP argument.
//
// A round is one value: its number, its phase (open, sealed, finalizing,
// finalized), its origin, and everything that belongs to it alone.
// transitionLocked is the only writer of the phase: seal, finalize, replay,
// archive restore, advance and Close all go through it, and it refuses any
// move of a round that is no longer current (the lifecycle table is in
// DESIGN.md §10).
//
// A cluster coordinator's merged round is a Server too, fed shard states
// instead of reports: FinalizeMerged takes the pulled state messages, checks
// each one's round, ε, mode and longitudinal budgets against the open round
// before importing any, decodes every shard's counts at the round's
// per-report ε, and closes the round through the same finalize, archive and
// Recover as a single node. The coordinator mounts only the plan, query,
// rounds and health routes.
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
	"maps"
	"net/http"
	"sync"
	"sync/atomic"

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

// testHookShardExport, when non-nil, runs after a state pull seals the round
// and releases the server lock; tests hold a pull open with it.
var testHookShardExport func()

// maxReportBody caps a POST /v1/report body. A legitimate report is well
// under 200 bytes; the cap only exists so a hostile payload cannot exhaust
// memory.
const maxReportBody = 64 << 10

// Server drives FELIP collection rounds over HTTP: an ingest plane (the
// current round's Collector, guarded by mu) and a serving plane (the last
// finalized round's engine, behind an atomic pointer the query handlers read
// without taking mu).
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

	// serving answers /v1/query: the last finalized round's engine, nil until
	// the first round finalizes, swapped whole and never mutated in place.
	serving atomic.Pointer[servingState]
	// history is store, set beside it by UseArchive and read without mu: it
	// answers round-targeted and window/decay queries from archived rounds.
	history atomic.Pointer[archive.Store]

	mu  sync.RWMutex
	cur *round // the round being collected; transitionLocked moves it
	// settled, on mu, is broadcast whenever a round leaves phaseFinalizing.
	settled *sync.Cond
	// walFactory opens round k's write-ahead log segment when AdvanceRound
	// opens round k on a durable server.
	walFactory func(round int) (*reportlog.Log, error)
	// dedup holds every accepted report_id with its payload key (dedup.go).
	// It spans rounds: a device retrying its round-k report during round k+1
	// must be answered "duplicate", not double-counted into a new round. WAL
	// replay rebuilds it on restart.
	dedup *dedupIndex
	// durable marks a server whose rounds must run against WAL segments.
	// UseWAL and Recover set it; a server Recover restored from an archive
	// snapshot with no segment after it has no log to attach, but its next
	// round must still open one.
	durable bool
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

	// batch is the POST /v1/reports admission scratch, reused across frames
	// under mu.
	batch batch
}

// errShuttingDown refuses everything once Close has ended the server.
var errShuttingDown = errors.New("server shutting down")

// phase is where a round is in its lifecycle (DESIGN.md §10).
type phase uint8

const (
	phaseOpen       phase = iota // taking reports
	phaseSealed                  // counts frozen: exported by a state pull, or an empty seal replayed
	phaseFinalizing              // a finalize is estimating outside s.mu
	phaseFinalized               // estimated; its engine is (or was) served
	// phaseClosed is the move Close makes, not a phase a round is left in:
	// the round keeps its phase, so /v1/status shows where it stopped, and
	// is marked closed, which refuses every later move.
	phaseClosed
)

// origin is where a round's state came from.
type origin uint8

const (
	originLive     origin = iota // collected by this process
	originReplayed               // rebuilt from its WAL segment's records
	originRestored               // served from an archive snapshot; no segment backs it
)

// round is one collection round and everything that belongs to it alone. A
// path that releases s.mu keeps its *round and settles into it or nowhere.
type round struct {
	num    int   // 1-based
	phase  phase // written only by transitionLocked
	origin origin
	closed bool // Close ended the server in this round (phaseClosed)
	col    *core.Collector
	agg    *core.Aggregator // set once the round is finalized
	wal    *reportlog.Log   // the round's segment; nil on a server without a WAL
	// state caches the first state pull's message; a repeat pull (a lost
	// response, a coordinator restart) re-serves it identically.
	state *wire.ShardStateMessage
	err   error // a failed finalize's error, for the calls that waited on it

	// The counters Status shows: submissions refused before the collector
	// (which counts plan-level rejects), accepted and refused submissions by
	// claimed mode, and accepted reports' wire bytes by protocol.
	wireRejected int
	modeAccepted map[string]int
	modeRejected map[string]int
	wireBytes    map[string]int64
}

// newRound is round num, open and live, collecting into col.
func newRound(num int, col *core.Collector) *round {
	return &round{num: num, col: col, modeAccepted: make(map[string]int),
		modeRejected: make(map[string]int), wireBytes: make(map[string]int64)}
}

// reports is the round's population: its aggregate's once finalized, which a
// restored round's collector may not hold, else its collector's count.
func (r *round) reports() int {
	if r.agg != nil {
		return r.agg.N()
	}
	return r.col.N()
}

// rejected is the round's refused-submission count, the collector's included.
func (r *round) rejected() int { return r.wireRejected + r.col.Rejected() }

// restoreRejected sets the round's refused-submission count to the one a
// seal record or snapshot carries; the collector's own count is part of it.
func (r *round) restoreRejected(total int) { r.wireRejected = total - r.col.Rejected() }

// importStates decodes partial-state sets at the round's per-report ε (ε/m
// under SPL, ε′ under RS+FD), the budget its collector's aggregators run at,
// and imports them all or none (Collector.ImportPartials checks every set
// before it touches a count). Caller holds s.mu.
func (r *round) importStates(sets ...[]wire.GridStateDTO) error {
	states := make([][]fo.PartialState, len(sets))
	for i, grids := range sets {
		var err error
		if states[i], err = wire.ParseGridStates(grids, r.col.ReportEpsilon()); err != nil {
			return fmt.Errorf("partial state set %d: %w", i, err)
		}
	}
	return r.col.ImportPartials(states...)
}

// moves[from] has a bit for each phase the current round may move to: open →
// finalized is replay or archive restore, finalizing → open or sealed a
// failed attempt going back. Close waits out a finalizing round.
var moves = [...]uint8{
	phaseOpen:       1<<phaseSealed | 1<<phaseFinalizing | 1<<phaseFinalized | 1<<phaseClosed,
	phaseSealed:     1<<phaseFinalizing | 1<<phaseClosed,
	phaseFinalizing: 1<<phaseOpen | 1<<phaseSealed | 1<<phaseFinalized,
	phaseFinalized:  1 << phaseClosed,
}

// transitionLocked moves round r to phase to; it is the only writer of a
// round's phase. It refuses every move once the server is closed, any move of
// a round no longer current (so a close finishing after an advance cannot
// land in the next round), and any move not in moves. A seal (open → sealed)
// and a finalize (→ finalized) first log and sync the round's finalize
// record. The next round opens once the current one is sealed or finalized,
// with its own segment on a durable server. Caller holds s.mu.
func (s *Server) transitionLocked(r *round, to phase) error {
	cur := s.cur
	switch {
	case cur.closed:
		return errShuttingDown
	case r != cur && (to != phaseOpen || r.num != cur.num+1):
		return fmt.Errorf("httpapi: round %d is over; the server is in round %d", r.num, cur.num)
	case r != cur && cur.phase != phaseSealed && cur.phase != phaseFinalized:
		return fmt.Errorf("httpapi: round %d not finalized; finalize before opening the next round", cur.num)
	case r != cur:
		if s.durable {
			if s.walFactory == nil {
				return fmt.Errorf("httpapi: durable server has no WAL factory for round %d (SetWALFactory)", r.num)
			}
			var err error
			if r.wal, err = s.walFactory(r.num); err != nil {
				return fmt.Errorf("httpapi: opening round %d log: %w", r.num, err)
			}
		}
		s.cur = r
		return nil
	case moves[r.phase]&(1<<to) == 0:
		return fmt.Errorf("httpapi: round %d cannot move from phase %d to %d", r.num, r.phase, to)
	case to == phaseClosed:
		var err error
		if r.wal != nil {
			err = r.wal.Close()
		}
		r.closed, r.wal = true, nil
		return err
	}
	if r.wal != nil && (to == phaseFinalized || to == phaseSealed && r.phase == phaseOpen) {
		err := r.wal.Append(reportlog.FinalizeRecord(r.reports(), r.rejected()))
		if err == nil {
			err = r.wal.Sync()
		}
		if err != nil {
			return fmt.Errorf("httpapi: logging round %d's close: %w", r.num, err)
		}
	}
	if r.phase == phaseFinalizing {
		s.settled.Broadcast()
	}
	r.phase = to
	return nil
}

// current is the round being collected.
func (s *Server) current() *round {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur
}

// openNextLocked opens the round after the current one. Caller holds s.mu.
func (s *Server) openNextLocked() error {
	col, err := core.NewCollector(s.schema, s.planN, s.opts)
	if err != nil {
		return err
	}
	return s.transitionLocked(newRound(s.cur.num+1, col), phaseOpen)
}

// awaitSettledLocked waits, with s.mu released, until r is not finalizing.
// Caller holds s.mu, and holds it again on return.
func (s *Server) awaitSettledLocked(r *round) {
	for r.phase == phaseFinalizing {
		s.settled.Wait()
	}
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
	s := &Server{
		schema:       schema,
		planN:        n,
		opts:         opts,
		cur:          newRound(1, col),
		plan:         wire.NewPlanMessage(schema, col.Epsilon(), col.Mode(), col.Longitudinal(), specs),
		mode:         col.Mode(),
		modeName:     wire.ModeName(col.Mode()),
		longitudinal: col.Longitudinal(),
		specAttrs:    specAttrs,
		logf:         log.Printf,
		dedup:        newDedupIndex(),
		batch:        batch{seen: make(map[string]int)},
	}
	s.settled = sync.NewCond(&s.mu)
	return s, nil
}

// SetLogger redirects the server's operational log (default log.Printf).
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
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
	r := s.cur
	if r.wal != nil {
		return fmt.Errorf("httpapi: write-ahead log already attached")
	}
	if r.phase != phaseOpen || r.col.N() > 0 {
		return fmt.Errorf("httpapi: cannot attach a write-ahead log to a round in progress")
	}
	if err := s.attachLocked(r, l, records); err != nil {
		return err
	}
	s.durable = true
	return nil
}

// attachLocked replays a WAL segment's records into round r, then attaches
// l as r's segment, so replay's moves log nothing. Caller holds s.mu.
func (s *Server) attachLocked(r *round, l *reportlog.Log, records []reportlog.Record) error {
	for i, rec := range records {
		r.origin = originReplayed
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
				err = r.col.Add(rep)
			}
			if err != nil {
				return fmt.Errorf("httpapi: wal record %d: %w", i, err)
			}
			key, _ := packKey(rep) // Add passed Check, so the report packs
			s.dedup.put(id, key)
			r.modeAccepted[s.mode.String()]++
			s.walReplayed++
		case reportlog.TypeFinalize:
			// A seal's or a finalize's record; one after a seal's only restores
			// the rejected count. A round sealed empty has no aggregate to
			// rebuild (Finalize refuses zero reports): replay seals it.
			r.restoreRejected(rec.Rejected)
			var err error
			switch {
			case r.phase != phaseOpen:
			case rec.Reports == 0 && r.col.N() == 0:
				r.col.Seal()
				err = s.transitionLocked(r, phaseSealed)
			default:
				// Estimated under the lock (no query traffic exists yet) and
				// served cold: Recover warms the served engine last.
				var eng *serve.Engine
				if eng, err = estimate(r.col); err == nil {
					err = s.serveLocked(r, eng)
				}
			}
			if err != nil {
				return fmt.Errorf("httpapi: wal record %d: refinalizing: %w", i, err)
			}
		default:
			return fmt.Errorf("httpapi: wal record %d: unknown type %q", i, rec.Type)
		}
	}
	r.col.ResumeAssignment(r.col.N())
	r.wal = l
	return nil
}

// estimate finalizes col and builds the round's engine, cold.
func estimate(col *core.Collector) (*serve.Engine, error) {
	agg, err := col.Finalize()
	if err != nil {
		return nil, err
	}
	return serve.NewEngine(agg)
}

// serveLocked finalizes round r with eng's aggregate (transitionLocked logs
// its record) and swaps eng in to answer queries. Caller holds s.mu.
func (s *Server) serveLocked(r *round, eng *serve.Engine) error {
	r.agg = eng.Aggregator()
	if err := s.transitionLocked(r, phaseFinalized); err != nil {
		r.agg = nil
		return err
	}
	s.publish(eng, r.num)
	return nil
}

// AdvanceRound is the idempotent round transition: target names the round the
// caller wants open, and the finalized round keeps serving queries while the
// new one collects. On a durable server the factory registered with
// SetWALFactory opens the next round's segment. target == current round is a
// replayed transition and succeeds without side effects (the coordinator
// retrying a nextround whose acknowledgment was lost must not burn a round);
// target == current+1 advances once the current round is sealed or finalized
// (transitionLocked); any other target is a refused jump — a coordinator and
// shard that disagree by more than one round have diverged and must not
// paper over it. target 0 keeps the legacy unconditional advance.
//
// The finalized round's segment is closed after s.mu is released: its
// finalize record is already synced, and once the archive has unlinked it,
// its last close frees its blocks — tens of milliseconds during which every
// report, frame, status and assign request would wait on the lock.
func (s *Server) AdvanceRound(target int) (int, error) {
	round, prev, err := s.swapRound(target)
	if prev != nil {
		if err := prev.Close(); err != nil {
			s.logf("httpapi: closing round %d log: %v", round-1, err)
		}
	}
	return round, err
}

// swapRound is AdvanceRound under s.mu; it returns the previous round's
// segment, if any, for the caller to close.
func (s *Server) swapRound(target int) (int, *reportlog.Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur
	if target == prev.num {
		return prev.num, nil, nil
	}
	if target != 0 && target != prev.num+1 {
		return 0, nil, fmt.Errorf("httpapi: round is %d; cannot jump to round %d", prev.num, target)
	}
	if err := s.openNextLocked(); err != nil {
		return 0, nil, err
	}
	return s.cur.num, prev.wal, nil
}

// SetWALFactory registers the opener AdvanceRound uses to create round k's WAL
// segment on a durable server.
func (s *Server) SetWALFactory(f func(round int) (*reportlog.Log, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walFactory = f
}

// Close ends the server, with or without a write-ahead log attached: it waits
// for an in-flight finalize to log its record, closes the log, and refuses
// reports, state pulls and round moves from then on. A second Close is a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// An advance may land while Close waits, and its round may start a finalize.
	for s.cur.phase == phaseFinalizing {
		s.settled.Wait()
	}
	if s.cur.closed {
		return nil
	}
	return s.transitionLocked(s.cur, phaseClosed)
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
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query", s.handleQueryBatch)
	mux.HandleFunc("GET /v1/rounds", s.handleRounds)
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
	r := s.cur
	col, open, closed := r.col, r.phase == phaseOpen, r.closed
	s.mu.RUnlock()
	switch {
	case closed:
		s.writeError(w, http.StatusServiceUnavailable, errShuttingDown)
	case !open:
		s.writeError(w, http.StatusConflict, fmt.Errorf("collection round already finalized"))
	default:
		s.writeJSON(w, http.StatusOK, map[string]int{"group": col.AssignGroup()})
	}
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

	func() {
		s.mu.Lock()
		defer s.mu.Unlock() // a panic in admission must not leave mu held
		if err != nil {
			s.rejectLocked(claim, 1)
		} else {
			status, err = s.admitLocked(&b)
		}
	}()
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

// finalize closes the current round (finalizeRound).
func (s *Server) finalize() (int, error) { return s.finalizeRound(s.current()) }

// finalizeRound closes round r once; subsequent calls return the same count.
// The server lock is dropped while the collector estimates (the round is
// finalizing, so admission refuses new reports) and while the round's
// serving engine is built and warmed, so /v1/status, /v1/healthz and
// /v1/query — still answering from the previous round's engine — stay live;
// concurrent finalize requests wait for the in-flight attempt's outcome
// instead of re-running it. The new engine is swapped in fully warmed, before
// finalize acknowledges, so a client that saw the 200 can immediately query
// the new round. r settles into finalized or back into the phase it came
// from: nothing else moves a finalizing round.
func (s *Server) finalizeRound(r *round) (int, error) {
	s.mu.Lock()
	joined := r.phase == phaseFinalizing
	s.awaitSettledLocked(r)
	from, err := r.phase, r.err // a failed attempt's waiters share its error
	if from == phaseFinalized {
		s.mu.Unlock()
		return r.agg.N(), nil
	}
	if !joined {
		err = s.transitionLocked(r, phaseFinalizing)
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}

	if hook := testHookFinalize; hook != nil {
		hook()
	}
	eng, err := estimate(r.col)
	if err == nil {
		err = eng.Warmup()
	}

	s.mu.Lock()
	if err == nil {
		err = s.serveLocked(r, eng)
	}
	if err != nil {
		r.err = err
		s.transitionLocked(r, from) // legal from finalizing
		s.mu.Unlock()
		return 0, err
	}
	rejected, store := r.rejected(), s.store
	s.mu.Unlock()
	// Archive outside the lock: snapshot fsync is disk I/O and must not block
	// status or the next round's ingest. Ordering is what matters — the WAL
	// finalize record is already synced, so a crash anywhere in here replays;
	// and a segment is deleted only once the archive holds its round.
	if store != nil {
		s.archiveRound(r, rejected)
		s.reclaimSegments()
	}
	return eng.Aggregator().N(), nil
}

// FinalizeMerged closes the open round from the shard states a coordinator
// pulled instead of from reports. Every message must carry the round's
// number, ε, mode and longitudinal budgets (checkShardState); then every
// shard's counts are imported, all or none (round.importStates), and the
// round closes like any other (finalizeRound). A refused merge imports
// nothing and leaves the round open for a retry.
func (s *Server) FinalizeMerged(msgs []wire.ShardStateMessage) (int, error) {
	s.mu.Lock()
	r := s.cur
	err := core.ErrFinalized
	if r.phase == phaseOpen && !r.closed {
		sets := make([][]wire.GridStateDTO, len(msgs))
		for i, msg := range msgs {
			if err = s.checkShardState(r, msg); err != nil {
				break
			}
			sets[i] = msg.Grids
		}
		if err == nil {
			err = r.importStates(sets...)
		}
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return s.finalizeRound(r)
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

// Status reports the round's progress and counters: what GET /v1/status
// answers, less the dedup index's size.
func (s *Server) Status() Status {
	s.mu.RLock()
	r := s.cur
	st := Status{
		Round:          r.num,
		Finalized:      r.phase == phaseFinalized,
		Finalizing:     r.phase == phaseFinalizing,
		Durable:        s.durable,
		DedupEntries:   s.dedup.len(),
		Rejected:       r.rejected(),
		Reports:        r.reports(), // r.agg is set under s.mu
		Mode:           s.mode.String(),
		ShardID:        s.shardID,
		Sealed:         r.phase == phaseSealed || r.state != nil,
		WALReplayed:    s.walReplayed,
		Restored:       r.origin == originRestored,
		ModeAccepted:   maps.Clone(r.modeAccepted),
		ModeRejected:   maps.Clone(r.modeRejected),
		WireBytesTotal: maps.Clone(r.wireBytes),
	}
	if s.longitudinal != nil {
		acct := longitudinal.Accountant{Cfg: *s.longitudinal}
		st.Longitudinal = s.longitudinal
		st.EpsPerRound = acct.PerRound()
		st.EpsCumulative = acct.Cumulative(r.num)
		st.EpsFreshEquivalent = acct.FreshCumulative(r.num)
	}
	if r.wal != nil {
		st.WALPos = r.wal.Pos()
	}
	store := s.store
	s.mu.RUnlock()
	if served := s.serving.Load(); served != nil {
		st.ServedRound = served.round
	}
	if store != nil {
		st.RoundsRetained = len(store.Rounds())
	}
	st.Groups = len(s.plan.Grids)
	st.GroupCounts = r.col.GroupCounts()
	st.Metrics = metrics.Snapshot()
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.Status()
	s.mu.RLock()
	dedupBytes := s.dedup.sizeBytes()
	s.mu.RUnlock()
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
