package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/httpapi"
	"felip/internal/query"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// Every workload collects over the same schema and plan: 6 numerical
// attributes of domain 256 and 2 categorical of domain 16, planned for
// planN users at ε = 1.2 with a fixed plan seed, so the grid plan is the
// same on every run and only the data, the device randomness and the query
// stream follow -seed.
const (
	planN    = 5_000_000
	planSeed = 0x5eed_f311
	epsilon  = 1.2
	// frameReports is the reports one pre-encoded frame (or one cluster
	// ReportBatch call) carries.
	frameReports = 512
	// selectivity is the per-attribute selectivity of every generated query.
	selectivity = 0.5
	// maeScale sets the answer_mae gate: a close over n reports must answer
	// the probes with a mean absolute error, against the exact answers over
	// the generated columns, of at most maeScale/√n — about twice what this
	// plan measured at 25k, 60k, 410k and 1M reports.
	maeScale = 40.0
	// probeSeed fixes the probe set: the accuracy yardstick is the same
	// queries on every run, so answer_mae varies only with the data and the
	// device randomness.
	probeSeed = 0x9e3779b97f4a7c15
	// lateCeilingMS is the live-round validity gate on the open-loop
	// generator's p99 lateness.
	lateCeilingMS = 5.0
	// exactTolerance bounds the difference between the coordinator's answers
	// and an in-process collector fed the same reports.
	exactTolerance = 1e-9
)

// config sizes one run. fullConfig is what the command runs; the smoke test
// runs tinyConfig through the same code.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // working directory for WAL segments and archives
	// cycles is the measured rounds: the run's seconds over the workload's
	// nominal round length, so the work per run is fixed by -seconds and
	// every run of a workload does the same work.
	cycles int

	setupReps int // least set-ups per run; setup_s is their median
	// setupBudget keeps set-up repeating until this much time has passed.
	setupBudget  time.Duration
	framePool    int // ingest-frames: devices per round
	jsonPool     int // ingest-json: devices per round
	roundReports int // round-close: devices per round
	liveRound1   int // live-round: reports in the round that serves first
	frameRate    float64
	queryRate    float64
	probes       int // distinct probe queries asked after every close
	layerReports int // traced run: reports fed through the layer pass
}

func fullConfig() config {
	return config{
		setupReps:    5,
		setupBudget:  2 * time.Second,
		framePool:    500_000,
		jsonPool:     40_000,
		roundReports: 100_000,
		liveRound1:   1_000_000,
		// Each live-round sender has one connection and sends serially, so it
		// can carry one request per answer time: about 1.3 ms for a frame with
		// its fsync, 0.2 ms for a query. These rates keep both senders near a
		// quarter of that, so a slow stretch of the host does not tip a round
		// into a standing backlog.
		frameRate:    200,
		queryRate:    1000,
		probes:       100,
		layerReports: 200_000,
	}
}

func tinyConfig() config {
	return config{
		setupReps:    1,
		framePool:    4 * frameReports,
		jsonPool:     300,
		roundReports: 2 * frameReports,
		liveRound1:   2 * frameReports,
		frameRate:    40,
		queryRate:    200,
		probes:       10,
		layerReports: 4 * frameReports,
	}
}

// run accumulates one workload's samples. Timings are in milliseconds.
type run struct {
	mu sync.Mutex
	// queries holds the latency of every query: the live-round stream and
	// the probe passes after closes.
	queries []float64
	closes  []float64
	// probeCPU is, for each close's pass over the probes, the process CPU
	// time per probe in microseconds.
	probeCPU  []float64
	late      []float64
	setups    []float64 // seconds
	attempted int
	failed    int
	gates     []string // failed correctness gates

	heapBytes   float64 // live-heap growth across the measured phase
	heapReports int     // reports ingested over it
	absErr      []float64
	cycles      []cycle
}

// cycle is one measured ingest phase (a round's submissions).
type cycle struct {
	reports    int
	seconds    float64
	cpu        time.Duration // process CPU time, load and servers together
	acks       []ack
	allocBytes uint64
	pauseNS    uint64
}

// ack is one acknowledged submission (a frame, a JSON report or a
// ReportBatch call): its latency and whether its index was odd. In a traced
// run odd submissions go untraced and even ones traced, which gives the
// trace overhead.
type ack struct {
	ms  float64
	odd bool
}

func (r *run) op(ok bool) {
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	r.mu.Unlock()
}

func (r *run) gate(format string, args ...any) {
	r.mu.Lock()
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// env is one workload run: the shared plan, the generated data and probes,
// the load client and the samples.
type env struct {
	cfg    config
	ctx    context.Context
	schema *domain.Schema
	opts   core.Options
	specs  []core.GridSpec
	ds     *dataset.Dataset
	probes []string
	probeQ []query.Query

	tr *tracer
	tp *transport
	hc *http.Client // the load's client: at most two connections per server
	// shardHC carries the coordinator's calls to its shards.
	shardHC *http.Client
	run     run
	// layer holds the layer pass's counts and ratios (bytes, allocations,
	// hit ratios); its timings are spans.
	layer map[string]float64
	// reg brackets the measured phase: registry readings at its start [0]
	// and end [1].
	reg     [2]map[string]int64
	elapsed float64 // measured phase wall time, seconds
}

// discard is the servers' operational log: the benchmark prints only its own
// table.
func discard(string, ...any) {}

// newEnv plans the round and generates rows data rows and the probe set.
func newEnv(ctx context.Context, cfg config, rows int) (*env, error) {
	schema := dataset.MixedSchema(6, 256, 2, 16)
	opts := core.Options{Strategy: core.OHG, Epsilon: epsilon, Seed: planSeed, StreamingAggregation: true}
	col, err := core.NewCollector(schema, planN, opts)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp := &transport{base: newHTTPTransport(), tr: tr}
	e := &env{
		cfg:     cfg,
		ctx:     ctx,
		schema:  schema,
		opts:    opts,
		specs:   col.Specs(),
		ds:      dataset.NewNormal().Generate(schema, rows, cfg.seed),
		tr:      tr,
		tp:      tp,
		hc:      &http.Client{Transport: tp},
		shardHC: &http.Client{Transport: &transport{base: newHTTPTransport(), tr: tr}},
		layer:   make(map[string]float64),
	}
	gen, err := query.NewGenerator(schema, selectivity, probeSeed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.probes; i++ {
		q, err := gen.Generate(1 + i%4)
		if err != nil {
			return nil, err
		}
		e.probeQ = append(e.probeQ, q)
		e.probes = append(e.probes, query.Compact(q, schema))
	}
	return e, nil
}

func newHTTPTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
}

// setup runs start at least cfg.setupReps times, and again while less than
// cfg.setupBudget has passed, recording each duration. A short set-up thus
// repeats over the whole budget: the host's speed shifts within seconds, and
// samples packed into a fraction of a second all catch one state of it.
// Between two runs, untimed, stop releases what the earlier run started and
// its garbage is collected, so each run starts from the same state; the last
// run's state stays in place.
func (e *env) setup(start func() error, stop func()) error {
	e.tr.on.Store(e.cfg.trace)
	defer e.tr.on.Store(false)
	began := time.Now()
	for i := 0; i < e.cfg.setupReps || time.Since(began) < e.cfg.setupBudget; i++ {
		if i > 0 {
			stop()
			runtime.GC()
		}
		t0 := time.Now()
		if err := start(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		e.run.setups = append(e.run.setups, time.Since(t0).Seconds())
	}
	return nil
}

// perturb produces the reports of devices lo..hi-1 with core.Client.Perturb,
// deterministically in the run's seed. Device d holds data row d modulo the
// dataset's rows, so devices past the last row are fresh draws over the same
// rows under new ids.
func (e *env) perturb(lo, hi int) ([]wire.BatchReport, error) {
	dev, err := core.NewClient(e.specs, epsilon, e.cfg.seed*0x100000001b3+uint64(lo)+1)
	if err != nil {
		return nil, err
	}
	rows := e.ds.N()
	out := make([]wire.BatchReport, hi-lo)
	for at := lo; at < hi; at += frameReports {
		end := min(at+frameReports, hi)
		err := e.tr.timed(0, "core.perturb", end-at, func() error {
			for i := at; i < end; i++ {
				id := "d" + strconv.Itoa(i)
				row := i % rows
				rep, err := dev.Perturb(httpapi.DeriveGroup(id, len(e.specs)), func(attr int) int { return e.ds.Value(row, attr) })
				if err != nil {
					return err
				}
				out[i-lo] = wire.BatchReport{ID: id, Report: rep}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeFrames encodes the reports as frames of frameReports reports.
func (e *env) encodeFrames(reps []wire.BatchReport) ([][]byte, error) {
	frames := make([][]byte, 0, (len(reps)+frameReports-1)/frameReports)
	for at := 0; at < len(reps); at += frameReports {
		end := min(at+frameReports, len(reps))
		var frame []byte
		err := e.tr.timed(0, "wire.encode", end-at, func() error {
			var err error
			frame, err = wire.EncodeFrame(reps[at:end])
			return err
		})
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	return frames, nil
}

// perturbFrames perturbs devices lo..hi-1 and encodes their reports as
// frames one frame at a time, so only the encoded frames stay in memory.
func (e *env) perturbFrames(lo, hi int) ([][]byte, error) {
	frames := make([][]byte, 0, (hi-lo+frameReports-1)/frameReports)
	for at := lo; at < hi; at += frameReports {
		reps, err := e.perturb(at, min(at+frameReports, hi))
		if err != nil {
			return nil, err
		}
		f, err := e.encodeFrames(reps)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f...)
	}
	return frames, nil
}

// node is one durable server behind a real HTTP listener: WAL segments with
// a fresh segment per round, and optionally an archive that snapshots every
// finalized round and truncates the segments it covers.
type node struct {
	srv *httpapi.Server
	ts  *httptest.Server
	cl  *httpapi.Client
	dir string
}

// opCtx is the context of submission i: odd submissions go untraced, so a
// traced run interleaves traced and untraced requests of the same load.
func (e *env) opCtx(i int) context.Context {
	if i%2 == 1 {
		return untraced(e.ctx)
	}
	return e.ctx
}

func (e *env) startNode(name string, withArchive bool) (*node, error) {
	dir := filepath.Join(e.cfg.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := httpapi.NewServer(e.schema, planN, e.opts)
	if err != nil {
		return nil, err
	}
	srv.SetLogger(discard)
	segs := reportlog.NewSegments(filepath.Join(dir, "wal"))
	if withArchive {
		store, err := archive.Open(filepath.Join(dir, "archive"), archive.Options{PlanFingerprint: srv.PlanFingerprint()})
		if err != nil {
			return nil, err
		}
		if err := srv.UseArchive(store, segs); err != nil {
			return nil, err
		}
	}
	srv.SetWALFactory(func(round int) (*reportlog.Log, error) {
		l, recs, err := segs.Open(round)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			l.Close()
			return nil, fmt.Errorf("segment %s is not empty", segs.Path(round))
		}
		return l, nil
	})
	l, recs, err := segs.Open(1)
	if err != nil {
		return nil, err
	}
	if err := srv.UseWAL(l, recs); err != nil {
		return nil, err
	}
	ts := httptest.NewUnstartedServer(e.tr.wrap(srv.Handler()))
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	return &node{srv: srv, ts: ts, cl: httpapi.Dial(ts.URL, e.hc), dir: dir}, nil
}

// stop shuts the node down and removes its files; stopping twice is
// harmless.
func (n *node) stop() {
	n.ts.Close()
	n.srv.Close()
	os.RemoveAll(n.dir)
}

// liveHeap forces a collection and returns the live heap in bytes. The
// second collection frees what sync.Pool victim caches kept through the first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// checkStatus is the server-side exactly-once gate before a close: the node
// counted exactly the reports the load sent and refused none.
func (e *env) checkStatus(cl *httpapi.Client, what string, sent int) {
	st, err := cl.Status(e.ctx)
	e.run.op(err == nil)
	if err != nil {
		e.run.gate("%s status: %v", what, err)
		return
	}
	if st.Reports != sent || st.Rejected != 0 {
		e.run.gate("%s: status reports=%d rejected=%d, sent %d", what, st.Reports, st.Rejected, sent)
	}
}

// closeRound finalizes through cl, times the close up to the first probe
// answer and completes that pass over the probe set for its answers, which
// it returns. The rest of the pass, one query at a time with nothing else
// running, gives the process CPU time per query; each query's latency goes
// to the printed table only, as on an idle node a request of some 50 µs
// measures mostly how fast the host wakes an idle CPU.
func (e *env) closeRound(cl *httpapi.Client, want int) []float64 {
	answers := make([]float64, len(e.probes))
	start := time.Now()
	n, err := cl.Finalize(e.ctx)
	e.run.op(err == nil && n == want)
	if err != nil || n != want {
		e.run.gate("finalize: %d reports (want %d), %v", n, want, err)
		return answers
	}
	var cpu0 time.Duration
	for i, where := range e.probes {
		t0 := time.Now()
		resp, err := cl.Query(e.ctx, where)
		e.run.op(err == nil)
		if err != nil {
			e.run.gate("probe %q: %v", where, err)
			continue
		}
		if i == 0 {
			e.run.closes = append(e.run.closes, msSince(start))
			cpu0 = cpuTime()
		} else {
			e.run.queries = append(e.run.queries, msSince(t0))
		}
		answers[i] = resp.Estimate
	}
	if k := len(e.probes) - 1; k > 0 && cpu0 > 0 {
		e.run.probeCPU = append(e.run.probeCPU, float64(cpuTime()-cpu0)/1e3/float64(k))
	}
	return answers
}

// cpuTime is the CPU time this process has used, user and system: the load
// and every server together. The kernel leaves out time the host gave to
// other machines.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// advance opens the next round through cl and gates that it is round want.
func (e *env) advance(cl *httpapi.Client, what string, want int) {
	next, err := cl.NextRound(e.ctx)
	e.run.op(err == nil && next == want)
	if err != nil || next != want {
		e.run.gate("%s: nextround answered %d, %v", what, next, err)
	}
}

// truth answers the probes exactly over data rows lo..hi-1.
func (e *env) truth(lo, hi int) []float64 {
	cols := make([][]uint16, e.schema.Len())
	for a := range cols {
		cols[a] = e.ds.Col(a)[lo:hi]
	}
	out := make([]float64, len(e.probeQ))
	for i, q := range e.probeQ {
		out[i] = query.Evaluate(q, cols)
	}
	return out
}

// score adds the absolute errors of one close's probe answers against the
// exact answers, and gates their mean for a close over n reports.
func (e *env) score(answers, truth []float64, n int) {
	var sum float64
	for i := range truth {
		err := math.Abs(answers[i] - truth[i])
		e.run.absErr = append(e.run.absErr, err)
		sum += err
	}
	if mae, ceiling := sum/float64(len(truth)), maeScale/math.Sqrt(float64(n)); mae > ceiling {
		e.run.gate("close over %d reports: probe mean absolute error %.4f above %.4f", n, mae, ceiling)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// closedLoop runs n operations on two client goroutines, each taking the next
// index until all are done; op returns whether it succeeded. It returns every
// operation's acknowledgement.
func (e *env) closedLoop(n int, op func(ctx context.Context, i int) bool) []ack {
	var wg sync.WaitGroup
	var next sync.Mutex
	at := 0
	acks := make([][]ack, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				next.Lock()
				i := at
				at++
				next.Unlock()
				if i >= n {
					return
				}
				t0 := time.Now()
				ok := op(e.opCtx(i), i)
				acks[w] = append(acks[w], ack{ms: msSince(t0), odd: i%2 == 1})
				e.run.op(ok)
			}
		}(w)
	}
	wg.Wait()
	return append(acks[0], acks[1]...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
