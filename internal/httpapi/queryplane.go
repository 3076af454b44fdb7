package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"felip/internal/archive"
	"felip/internal/domain"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/serve"
	"felip/internal/wire"
)

// roundServed reports the collection round whose engine is currently
// answering queries (0 until the first round finalizes).
var roundServed = metrics.GetGauge("httpapi.round_served")

// servingState is the immutable query-serving side of one finalized round;
// the owner swaps a new one in atomically at each finalize, so readers never
// take a lock.
type servingState struct {
	eng   *serve.Engine
	round int
}

// QueryPlane is the read-only half of a FELIP service: the last finalized
// round's engine behind an atomic pointer, plus the HTTP handlers that answer
// /v1/query against it. Both the single-node Server and the cluster
// coordinator embed one — the serving surface is identical whether the
// estimates came from one collector or from an exact merge of shard states.
type QueryPlane struct {
	schema *domain.Schema
	logf   func(format string, args ...any)

	// serving is nil until the first round finalizes. Swapped whole — never
	// mutated in place.
	serving atomic.Pointer[servingState]
	// history, when set, answers round-targeted and window/decay queries from
	// archived rounds (the time-travel plane). Nil = current round only.
	history atomic.Pointer[archive.Store]
}

// SetHistory attaches the archive the plane answers historical queries from.
func (p *QueryPlane) SetHistory(store *archive.Store) {
	p.history.Store(store)
}

// NewQueryPlane returns an empty plane (no round served yet).
func NewQueryPlane(schema *domain.Schema, logf func(format string, args ...any)) *QueryPlane {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &QueryPlane{schema: schema, logf: logf}
}

// Serve swaps in a finalized round's engine; queries answer from it until the
// next swap. The previous engine keeps answering in-flight requests.
func (p *QueryPlane) Serve(eng *serve.Engine, round int) {
	p.serving.Store(&servingState{eng: eng, round: round})
	roundServed.Set(int64(round))
}

// ServedRound reports the round currently answering queries (0, false before
// the first finalize).
func (p *QueryPlane) ServedRound() (int, bool) {
	if st := p.serving.Load(); st != nil {
		return st.round, true
	}
	return 0, false
}

// Warmup prepays every response-matrix fit of the engine currently serving.
// No-op when nothing is served yet.
func (p *QueryPlane) Warmup() error {
	if st := p.serving.Load(); st != nil {
		return st.eng.Warmup()
	}
	return nil
}

func writeJSONWith(logf func(string, ...any), w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone already; all we can do is not lose the
		// evidence.
		logf("httpapi: encoding %T response: %v", v, err)
	}
}

func writeErrorWith(logf func(string, ...any), w http.ResponseWriter, status int, err error) {
	writeJSONWith(logf, w, status, map[string]string{"error": err.Error()})
}

// resolveEngine picks the engine a round-targeted request answers from:
// round 0 or the served round → the live engine; any other round → the
// archive. A server without an archive refuses foreign rounds loudly — a
// silent current-round answer would let an analyst mistake today's data for
// history.
func (p *QueryPlane) resolveEngine(round int) (*serve.Engine, int, int, error) {
	st := p.serving.Load()
	if round != 0 && (st == nil || st.round != round) {
		hist := p.history.Load()
		if hist == nil {
			return nil, 0, http.StatusConflict,
				fmt.Errorf("round %d requested but this server keeps no archive; only the current round is queryable", round)
		}
		eng, err := hist.Engine(round)
		if err != nil {
			return nil, 0, http.StatusNotFound, err
		}
		return eng, round, 0, nil
	}
	if st == nil {
		return nil, 0, http.StatusConflict, fmt.Errorf("collection round not finalized yet")
	}
	return st.eng, st.round, 0, nil
}

// parseRoundRange parses the rounds= window selector: "all", "<a>..<b>", or
// a single round "<a>". lo..0 is not expressible; hi = 0 means "newest".
func parseRoundRange(spec string) (lo, hi int, err error) {
	if spec == "all" {
		return 1, 0, nil
	}
	a, b, found := strings.Cut(spec, "..")
	lo, err = strconv.Atoi(a)
	if err != nil || lo < 1 {
		return 0, 0, fmt.Errorf("invalid rounds selector %q (want \"all\", \"a..b\", or a round number)", spec)
	}
	if !found {
		return lo, lo, nil
	}
	hi, err = strconv.Atoi(b)
	if err != nil || hi < lo {
		return 0, 0, fmt.Errorf("invalid rounds selector %q (want \"all\", \"a..b\", or a round number)", spec)
	}
	return lo, hi, nil
}

// handleWindowQuery answers a rounds=… aggregate: the query evaluated over
// every archived round in the window, combined as a population-weighted mean
// (archive.Store.AnswerRange), or with exponential decay toward the newest
// selected round when halflife is given (archive.Store.AnswerDecayed).
func (p *QueryPlane) handleWindowQuery(w http.ResponseWriter, q query.Query, spec, halflife string) {
	hist := p.history.Load()
	if hist == nil {
		writeErrorWith(p.logf, w, http.StatusConflict,
			fmt.Errorf("window query requested but this server keeps no archive"))
		return
	}
	lo, hi, err := parseRoundRange(spec)
	if err != nil {
		writeErrorWith(p.logf, w, http.StatusBadRequest, err)
		return
	}
	var est float64
	if halflife != "" {
		h, err := strconv.ParseFloat(halflife, 64)
		if err != nil || h <= 0 {
			writeErrorWith(p.logf, w, http.StatusBadRequest,
				fmt.Errorf("invalid halflife %q (want a positive number of rounds)", halflife))
			return
		}
		est, err = hist.AnswerDecayed(q, lo, hi, h)
		if err != nil {
			writeErrorWith(p.logf, w, http.StatusBadRequest, err)
			return
		}
	} else {
		est, err = hist.AnswerRange(q, lo, hi)
		if err != nil {
			writeErrorWith(p.logf, w, http.StatusBadRequest, err)
			return
		}
	}
	// N totals the selected rounds' populations; Round reports the newest
	// round in the window (what the answer is freshest as of).
	var n, newest int
	for _, r := range hist.Rounds() {
		if r >= lo && (hi == 0 || r <= hi) {
			rep, _, _ := hist.Info(r)
			n += rep
			if r > newest {
				newest = r
			}
		}
	}
	writeJSONWith(p.logf, w, http.StatusOK,
		wire.QueryResponse{Query: q.String(), Estimate: est, N: n, Round: newest})
}

// HandleQuery answers GET /v1/query?where=<expr>. Optional parameters:
// round=<k> answers from an archived round, rounds=<a..b|all> (with optional
// halflife=<h>) answers a window/decay aggregate over archived rounds.
func (p *QueryPlane) HandleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	where := params.Get("where")
	if where == "" {
		writeErrorWith(p.logf, w, http.StatusBadRequest, fmt.Errorf("missing where parameter"))
		return
	}
	q, err := query.Parse(where, p.schema)
	if err != nil {
		writeErrorWith(p.logf, w, http.StatusBadRequest, err)
		return
	}
	if spec := params.Get("rounds"); spec != "" {
		p.handleWindowQuery(w, q, spec, params.Get("halflife"))
		return
	}
	round := 0
	if v := params.Get("round"); v != "" {
		round, err = strconv.Atoi(v)
		if err != nil || round < 1 {
			writeErrorWith(p.logf, w, http.StatusBadRequest, fmt.Errorf("invalid round %q", v))
			return
		}
	}
	eng, answeredRound, status, err := p.resolveEngine(round)
	if err != nil {
		writeErrorWith(p.logf, w, status, err)
		return
	}
	est, err := eng.Answer(q)
	if err != nil {
		writeErrorWith(p.logf, w, http.StatusBadRequest, err)
		return
	}
	resp := wire.QueryResponse{Query: q.String(), Estimate: est, N: eng.N(), Round: answeredRound}
	if ee, err := eng.ExpectedError(q); err == nil {
		resp.ExpectedError = ee
	}
	writeJSONWith(p.logf, w, http.StatusOK, resp)
}

// Batch query limits: enough for real analyst workloads, small enough that a
// hostile batch cannot monopolize the process.
const (
	maxBatchQueries = 1024
	maxBatchBody    = 1 << 20
)

// HandleQueryBatch answers POST /v1/query (wire.BatchQueryRequest). A
// request naming an archived round answers the whole batch from that round's
// engine, resolved once.
func (p *QueryPlane) HandleQueryBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req wire.BatchQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErrorWith(p.logf, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErrorWith(p.logf, w, http.StatusBadRequest, fmt.Errorf("invalid batch body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		writeErrorWith(p.logf, w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeErrorWith(p.logf, w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries))
		return
	}
	if req.Round < 0 {
		writeErrorWith(p.logf, w, http.StatusBadRequest, fmt.Errorf("invalid round %d", req.Round))
		return
	}
	eng, round, status, err := p.resolveEngine(req.Round)
	if err != nil {
		writeErrorWith(p.logf, w, status, err)
		return
	}

	// Parse failures stay per-item: the rest of the batch is still answered,
	// concurrently, by the engine.
	items := make([]wire.BatchQueryItem, len(req.Queries))
	qs := make([]query.Query, 0, len(req.Queries))
	idx := make([]int, 0, len(req.Queries))
	for i, where := range req.Queries {
		items[i].Query = where
		q, err := query.Parse(where, p.schema)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		items[i].Query = q.String()
		qs = append(qs, q)
		idx = append(idx, i)
	}
	for k, res := range eng.AnswerBatch(qs) {
		i := idx[k]
		if res.Err != nil {
			items[i].Error = res.Err.Error()
			continue
		}
		items[i].Estimate = res.Estimate
		if ee, err := eng.ExpectedError(qs[k]); err == nil {
			items[i].ExpectedError = ee
		}
	}
	writeJSONWith(p.logf, w, http.StatusOK, wire.BatchQueryResponse{Round: round, N: eng.N(), Results: items})
}

// Rounds builds the /v1/rounds listing: every archived round plus the one
// currently served (they usually overlap), in ascending order, with the
// caller's collecting round as the cursor.
func (p *QueryPlane) Rounds(current int) wire.RoundsResponse {
	resp := wire.RoundsResponse{Current: current, Rounds: []wire.RoundInfo{}}
	byRound := make(map[int]wire.RoundInfo)
	if hist := p.history.Load(); hist != nil {
		for _, r := range hist.Rounds() {
			reports, bytes, _ := hist.Info(r)
			byRound[r] = wire.RoundInfo{Round: r, Reports: reports, SnapshotBytes: bytes, Archived: true}
		}
	}
	if st := p.serving.Load(); st != nil {
		resp.Served = st.round
		info, ok := byRound[st.round]
		if !ok {
			info = wire.RoundInfo{Round: st.round, Reports: st.eng.N()}
		}
		info.Served = true
		byRound[st.round] = info
	}
	order := make([]int, 0, len(byRound))
	for r := range byRound {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		resp.Rounds = append(resp.Rounds, byRound[r])
	}
	return resp
}

// HandleRounds serves GET /v1/rounds. current reports the collecting round
// (server or coordinator state the plane does not own).
func (p *QueryPlane) HandleRounds(current func() int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSONWith(p.logf, w, http.StatusOK, p.Rounds(current()))
	}
}
