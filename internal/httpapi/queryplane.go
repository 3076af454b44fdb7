package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/serve"
	"felip/internal/wire"
)

// This file is the server's query plane, the read-only half of a round: the
// handlers that answer /v1/query and /v1/rounds from the engine behind
// Server.serving and the archive behind Server.history. Queries never take
// s.mu, so they do not wait on ingest (/v1/rounds reads the collecting round
// under it). A coordinator's merged round answers through the same handlers.

// roundServed reports the collection round whose engine is currently
// answering queries (0 until the first round finalizes).
var roundServed = metrics.GetGauge("httpapi.round_served")

// servingState is the immutable query-serving side of one finalized round;
// each close swaps a new one in whole, so readers never take a lock.
type servingState struct {
	eng   *serve.Engine
	round int
}

// publish swaps in a finalized round's engine; queries answer from it until
// the next swap. The previous engine keeps answering in-flight requests.
func (s *Server) publish(eng *serve.Engine, round int) {
	s.serving.Store(&servingState{eng: eng, round: round})
	roundServed.Set(int64(round))
}

// warmServed prepays every response-matrix fit of the engine currently
// serving. No-op when nothing is served yet.
func (s *Server) warmServed() error {
	if st := s.serving.Load(); st != nil {
		return st.eng.Warmup()
	}
	return nil
}

// resolveEngine picks the engine a round-targeted request answers from:
// round 0 or the served round → the live engine; any other round → the
// archive. A server without an archive refuses foreign rounds loudly — a
// silent current-round answer would let an analyst mistake today's data for
// history.
func (s *Server) resolveEngine(round int) (*serve.Engine, int, int, error) {
	st := s.serving.Load()
	if round != 0 && (st == nil || st.round != round) {
		hist := s.history.Load()
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
func (s *Server) handleWindowQuery(w http.ResponseWriter, q query.Query, spec, halflife string) {
	hist := s.history.Load()
	if hist == nil {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("window query requested but this server keeps no archive"))
		return
	}
	lo, hi, err := parseRoundRange(spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var est float64
	if halflife != "" {
		h, err := strconv.ParseFloat(halflife, 64)
		if err != nil || h <= 0 {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("invalid halflife %q (want a positive number of rounds)", halflife))
			return
		}
		est, err = hist.AnswerDecayed(q, lo, hi, h)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		est, err = hist.AnswerRange(q, lo, hi)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
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
	s.writeJSON(w, http.StatusOK,
		wire.QueryResponse{Query: q.String(), Estimate: est, N: n, Round: newest})
}

// handleQuery answers GET /v1/query?where=<expr>. Optional parameters:
// round=<k> answers from an archived round, rounds=<a..b|all> (with optional
// halflife=<h>) answers a window/decay aggregate over archived rounds.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	where := params.Get("where")
	if where == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing where parameter"))
		return
	}
	q, err := query.Parse(where, s.schema)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if spec := params.Get("rounds"); spec != "" {
		s.handleWindowQuery(w, q, spec, params.Get("halflife"))
		return
	}
	round := 0
	if v := params.Get("round"); v != "" {
		round, err = strconv.Atoi(v)
		if err != nil || round < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid round %q", v))
			return
		}
	}
	eng, answeredRound, status, err := s.resolveEngine(round)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	est, err := eng.Answer(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := wire.QueryResponse{Query: q.String(), Estimate: est, N: eng.N(), Round: answeredRound}
	if ee, err := eng.ExpectedError(q); err == nil {
		resp.ExpectedError = ee
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Batch query limits: enough for real analyst workloads, small enough that a
// hostile batch cannot monopolize the process.
const (
	maxBatchQueries = 1024
	maxBatchBody    = 1 << 20
)

// handleQueryBatch answers POST /v1/query (wire.BatchQueryRequest). A
// request naming an archived round answers the whole batch from that round's
// engine, resolved once.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req wire.BatchQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid batch body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries))
		return
	}
	if req.Round < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid round %d", req.Round))
		return
	}
	eng, round, status, err := s.resolveEngine(req.Round)
	if err != nil {
		s.writeError(w, status, err)
		return
	}

	// Parse failures stay per-item: the rest of the batch is still answered,
	// concurrently, by the engine.
	items := make([]wire.BatchQueryItem, len(req.Queries))
	qs := make([]query.Query, 0, len(req.Queries))
	idx := make([]int, 0, len(req.Queries))
	for i, where := range req.Queries {
		items[i].Query = where
		q, err := query.Parse(where, s.schema)
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
	s.writeJSON(w, http.StatusOK, wire.BatchQueryResponse{Round: round, N: eng.N(), Results: items})
}

// handleRounds serves GET /v1/rounds: every archived round plus the one
// currently served (they usually overlap), in ascending order, with the
// collecting round as the cursor.
func (s *Server) handleRounds(w http.ResponseWriter, _ *http.Request) {
	resp := wire.RoundsResponse{Current: s.Round(), Rounds: []wire.RoundInfo{}}
	byRound := make(map[int]wire.RoundInfo)
	if hist := s.history.Load(); hist != nil {
		for _, r := range hist.Rounds() {
			reports, bytes, _ := hist.Info(r)
			byRound[r] = wire.RoundInfo{Round: r, Reports: reports, SnapshotBytes: bytes, Archived: true}
		}
	}
	if st := s.serving.Load(); st != nil {
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
	s.writeJSON(w, http.StatusOK, resp)
}
