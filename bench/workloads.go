package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"felip/internal/archive"
	"felip/internal/cluster"
	"felip/internal/core"
	"felip/internal/httpapi"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/serve"
	"felip/internal/wire"
)

// workloads maps each workload name to its run function, its nominal cycle length
// in seconds (a round on the reference host; -seconds divided by it is the
// run's cycle count) and the data rows it needs. The names are fixed: results
// and later changes cite them.
var workloads = map[string]struct {
	nominal float64
	rows    func(config) int
	run     func(*env) error
}{
	"ingest-frames": {1.0, func(c config) int { return c.framePool }, (*env).ingestFrames},
	"ingest-json":   {1.0, func(c config) int { return c.jsonPool }, (*env).ingestJSON},
	"round-close":   {0.4, func(c config) int { return c.roundReports }, (*env).roundClose},
	"live-round":    {0.625, func(c config) int { return liveFirstReports(c) + c.cycles*liveRoundReports(c) }, (*env).liveRound},
}

// measure runs the run's cycles, traced in a traced run.
func (e *env) measure(body func(i int) error) error {
	start := time.Now()
	e.reg[0] = metrics.Snapshot()
	e.tr.on.Store(e.cfg.trace)
	for i := 0; i < e.cfg.cycles; i++ {
		if err := body(i); err != nil {
			return err
		}
	}
	e.tr.on.Store(false)
	e.elapsed = time.Since(start).Seconds()
	e.reg[1] = metrics.Snapshot()
	return nil
}

// ingest runs one measured ingest phase that submits reports reports and
// records it as a cycle: its wall time and acknowledgements, and the
// process's CPU time, allocations and GC pauses during it.
func (e *env) ingest(reports int, load func() []ack) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), cpuTime()
	acks := load()
	seconds, cpu := time.Since(start).Seconds(), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	e.run.cycles = append(e.run.cycles, cycle{
		reports:    reports,
		seconds:    seconds,
		cpu:        cpu,
		acks:       acks,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		pauseNS:    m1.PauseTotalNs - m0.PauseTotalNs,
	})
}

// ingestRounds is the measured phase of the two ingest workloads, on one
// durable node for the whole run. Every cycle is a round: prepare makes a
// fresh draw of pool devices (untimed), load submits it, and the round is
// gated exactly-once and closed (finalize, probes, NextRound). The dedup
// index spans rounds and is never pruned, so it ends the run holding every
// device of every round; the heap growth is measured across the whole phase.
func (e *env) ingestRounds(n *node, pool int, prepare func(i int) error, load func(accepted *atomic.Int64) []ack) error {
	truth := e.truth(0, pool)
	h0 := liveHeap()
	err := e.measure(func(i int) error {
		if err := prepare(i); err != nil {
			return err
		}
		var accepted atomic.Int64
		e.ingest(pool, func() []ack { return load(&accepted) })
		what := fmt.Sprintf("round %d", i+1)
		e.checkAccepted(what, int(accepted.Load()), pool)
		e.checkStatus(n.cl, what, pool)
		e.score(e.closeRound(n.cl, pool), truth, pool)
		e.advance(n.cl, what, i+2)
		return nil
	})
	e.run.heapBytes += liveHeap() - h0
	e.run.heapReports += e.cfg.cycles * pool
	return err
}

// ingestFrames: one durable node (per-round WAL segments with an fsync per
// frame, plus an archive). Each round, two closed-loop clients post a fresh
// draw of framePool devices as pre-encoded frames — 5M reports into the one
// node in a 10-second run.
func (e *env) ingestFrames() error {
	pool := e.cfg.framePool
	var frames [][]byte
	var n *node
	err := e.setup(func() error {
		var err error
		if frames, err = e.perturbFrames(0, pool); err != nil {
			return err
		}
		n, err = e.startNode("frames", true)
		return err
	}, func() { n.stop() })
	if err != nil {
		return err
	}
	defer n.stop()
	err = e.ingestRounds(n, pool, func(i int) (err error) {
		if i > 0 {
			frames, err = e.perturbFrames(i*pool, (i+1)*pool)
		}
		return err
	}, func(accepted *atomic.Int64) []ack {
		return e.closedLoop(len(frames), func(ctx context.Context, k int) bool {
			cnt := wire.FrameReportCount(frames[k])
			resp, err := n.cl.ReportFrame(ctx, frames[k], cnt)
			accepted.Add(int64(resp.Accepted))
			return err == nil && resp.Accepted == cnt
		})
	})
	if err != nil {
		return err
	}
	n.stop()
	reps, err := e.perturb(0, min(pool, e.cfg.layerReports))
	if err != nil {
		return err
	}
	return e.layerPass(reps, true)
}

// ingestJSON: the same node and rounds, each a fresh draw of jsonPool devices
// fed one report per POST /v1/report through httpapi.Client.ReportWithID by
// two closed-loop clients.
func (e *env) ingestJSON() error {
	pool := e.cfg.jsonPool
	var reps []wire.BatchReport
	var n *node
	err := e.setup(func() error {
		var err error
		if reps, err = e.perturb(0, pool); err != nil {
			return err
		}
		n, err = e.startNode("json", true)
		return err
	}, func() { n.stop() })
	if err != nil {
		return err
	}
	defer n.stop()
	err = e.ingestRounds(n, pool, func(i int) (err error) {
		if i > 0 {
			reps, err = e.perturb(i*pool, (i+1)*pool)
		}
		return err
	}, func(accepted *atomic.Int64) []ack {
		return e.closedLoop(len(reps), func(ctx context.Context, k int) bool {
			dup, err := n.cl.ReportWithID(ctx, reps[k].ID, reps[k].Report)
			ok := err == nil && !dup
			if ok {
				accepted.Add(1)
			}
			return ok
		})
	})
	if err != nil {
		return err
	}
	n.stop()
	return e.layerPass(reps, false)
}

func (e *env) checkAccepted(what string, accepted, sent int) {
	if accepted != sent {
		e.run.gate("%s: %d of %d reports accepted", what, accepted, sent)
	}
}

// clusterDeployment is two durable shards plus a coordinator with an
// archive, each behind its own HTTP listener.
type clusterDeployment struct {
	shards  []*node
	cts     *httptest.Server
	ccl     *cluster.Client
	coordCl *httpapi.Client
	dir     string
}

func (e *env) startCluster() (*clusterDeployment, error) {
	d := &clusterDeployment{dir: filepath.Join(e.cfg.dir, "cluster")}
	var bases []string
	for i := 0; i < 2; i++ {
		n, err := e.startNode(filepath.Join("cluster", cluster.StaticShardName(i)), false)
		if err != nil {
			d.stop()
			return nil, err
		}
		n.srv.SetShardID(cluster.StaticShardName(i))
		d.shards = append(d.shards, n)
		bases = append(bases, n.ts.URL)
	}
	store, err := archive.Open(filepath.Join(d.dir, "coordinator-archive"),
		archive.Options{PlanFingerprint: d.shards[0].srv.PlanFingerprint()})
	if err != nil {
		d.stop()
		return nil, err
	}
	coord, err := cluster.New(cluster.Config{
		Schema:     e.schema,
		N:          planN,
		Opts:       e.opts,
		Shards:     bases,
		HTTPClient: e.shardHC,
		Retry:      httpapi.RetryPolicy{MaxAttempts: 1},
		Archive:    store,
		Logf:       discard,
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.cts = httptest.NewUnstartedServer(e.tr.wrap(coord.Handler()))
	d.cts.Config.ErrorLog = log.New(io.Discard, "", 0)
	d.cts.Start()
	d.ccl = cluster.NewClient(d.cts.URL, bases, e.hc, httpapi.RetryPolicy{MaxAttempts: 1})
	d.coordCl = httpapi.Dial(d.cts.URL, e.hc)
	return d, nil
}

func (d *clusterDeployment) stop() {
	if d.cts != nil {
		d.cts.Close()
	}
	for _, n := range d.shards {
		n.stop()
	}
	os.RemoveAll(d.dir)
}

// roundClose: rounds of a fresh draw of roundReports devices routed by
// cluster.Client ReportBatch (two closed-loop clients), each closed by a
// coordinator finalize — shard seal and state pull, merge, estimate, warmup,
// archive — answered probes, and a cluster-wide NextRound.
func (e *env) roundClose() error {
	R := e.cfg.roundReports
	var reps []wire.BatchReport
	var d *clusterDeployment
	err := e.setup(func() error {
		var err error
		if reps, err = e.perturb(0, R); err != nil {
			return err
		}
		d, err = e.startCluster()
		return err
	}, func() { d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()
	first := reps
	truth := e.truth(0, R)
	var answers [][]float64
	h0 := liveHeap()
	err = e.measure(func(i int) error {
		if i > 0 {
			var err error
			if reps, err = e.perturb(i*R, (i+1)*R); err != nil {
				return err
			}
		}
		chunks := (R + frameReports - 1) / frameReports
		var accepted atomic.Int64
		e.ingest(R, func() []ack {
			return e.closedLoop(chunks, func(ctx context.Context, k int) bool {
				chunk := reps[k*frameReports : min((k+1)*frameReports, R)]
				resp, err := d.ccl.ReportBatch(ctx, chunk)
				accepted.Add(int64(resp.Accepted))
				return err == nil && resp.Accepted == len(chunk)
			})
		})
		what := fmt.Sprintf("round %d", i+1)
		e.checkAccepted(what, int(accepted.Load()), R)
		total := 0
		for _, s := range d.shards {
			st, err := s.cl.Status(e.ctx)
			e.run.op(err == nil)
			if err != nil || st.Rejected != 0 {
				e.run.gate("%s shard status: rejected=%d %v", what, st.Rejected, err)
			}
			total += st.Reports
		}
		if total != R {
			e.run.gate("%s: shards counted %d of %d reports", what, total, R)
		}
		answers = append(answers, e.closeRound(d.coordCl, R))
		e.advance(d.coordCl, what, i+2)
		return nil
	})
	if err != nil {
		return err
	}
	e.run.heapBytes += liveHeap() - h0
	e.run.heapReports += len(answers) * R
	for _, a := range answers {
		e.score(a, truth, R)
	}
	if err := e.checkExact(first, answers[0], 1); err != nil {
		return err
	}
	if err := e.checkExact(reps, answers[len(answers)-1], len(answers)); err != nil {
		return err
	}
	d.stop()
	return e.layerPass(first, true)
}

// checkExact is the merge-exactness gate: an in-process collector fed the
// round's reports must answer the probes within exactTolerance of the
// coordinator.
func (e *env) checkExact(reps []wire.BatchReport, answers []float64, round int) error {
	col, err := core.NewCollector(e.schema, planN, e.opts)
	if err != nil {
		return err
	}
	for _, br := range reps {
		if err := col.Add(br.Report); err != nil {
			return err
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		return err
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		return err
	}
	for i, q := range e.probeQ {
		want, err := eng.Answer(q)
		if err != nil {
			return err
		}
		if math.Abs(want-answers[i]) > exactTolerance {
			e.run.gate("round %d probe %q: coordinator %v, in-process collector %v", round, e.probes[i], answers[i], want)
		}
	}
	return nil
}

// liveRoundReports is the reports one live round's frame schedule carries.
func liveRoundReports(c config) int {
	frames := int(c.frameRate * c.seconds / float64(c.cycles))
	return max(frames, 1) * frameReports
}

// liveFirstReports is the size of the round that serves first, in whole
// frames.
func liveFirstReports(c config) int {
	return max(c.liveRound1/frameReports, 1) * frameReports
}

// liveRound: a durable node serves a finalized round while the next one
// ingests. For each round, one connection sends frames on an open-loop
// schedule while another sends mixed λ=1..4 queries on their own; when the
// round's schedule ends, both stop and the round closes (finalize, probes,
// NextRound) before the next round's schedules start. Latencies are timed
// from each request's due time.
func (e *env) liveRound() error {
	perRound := liveRoundReports(e.cfg)
	r1 := liveFirstReports(e.cfg)
	var n *node
	err := e.setup(func() error {
		first, err := e.perturbFrames(0, r1)
		if err != nil {
			return err
		}
		if n, err = e.startNode("live", true); err != nil {
			return err
		}
		for _, f := range first {
			if resp, _, err := n.srv.IngestFrame(f); err != nil || resp.Accepted != wire.FrameReportCount(f) {
				return fmt.Errorf("filling round 1: %+v %v", resp, err)
			}
		}
		if got, err := n.cl.Finalize(e.ctx); err != nil || got != r1 {
			return fmt.Errorf("finalizing round 1: %d %v", got, err)
		}
		_, err = n.cl.NextRound(e.ctx)
		return err
	}, func() { n.stop() })
	if err != nil {
		return err
	}
	defer n.stop()
	frames, err := e.perturbFrames(r1, r1+e.cfg.cycles*perRound)
	if err != nil {
		return err
	}
	stream, err := e.queryStream(2000)
	if err != nil {
		return err
	}

	frameAt := 0
	framesPerRound := perRound / frameReports
	queriesPerRound := int(e.cfg.queryRate * float64(framesPerRound) / e.cfg.frameRate)
	var answers [][]float64
	h0 := liveHeap()
	err = e.measure(func(i int) error {
		accepted := 0
		frameSched := schedule{rate: e.cfg.frameRate}
		querySched := schedule{rate: e.cfg.queryRate}
		e.ingest(perRound, func() []ack {
			var wg sync.WaitGroup
			frameSched.start = time.Now()
			querySched.start = frameSched.start
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < queriesPerRound; k++ {
					where := stream[(i*queriesPerRound+k)%len(stream)]
					err := querySched.send(k, func() error {
						_, err := n.cl.Query(e.ctx, where)
						return err
					})
					e.run.op(err == nil)
				}
			}()
			acks := make([]ack, 0, framesPerRound)
			for k := 0; k < framesPerRound; k++ {
				f := frames[frameAt+k]
				var resp wire.BatchReportResponse
				err := frameSched.send(k, func() (err error) {
					resp, err = n.cl.ReportFrame(e.opCtx(k), f, frameReports)
					return err
				})
				e.run.op(err == nil && resp.Accepted == frameReports)
				accepted += resp.Accepted
				acks = append(acks, ack{ms: frameSched.latency[k], odd: k%2 == 1})
			}
			wg.Wait()
			return acks
		})
		e.run.queries = append(e.run.queries, querySched.latency...)
		e.run.late = append(append(e.run.late, frameSched.lag...), querySched.lag...)
		what := fmt.Sprintf("round %d", i+2)
		e.checkAccepted(what, accepted, perRound)
		e.checkStatus(n.cl, what, perRound)
		answers = append(answers, e.closeRound(n.cl, perRound))
		e.advance(n.cl, what, i+3)
		frameAt += framesPerRound
		return nil
	})
	if err != nil {
		return err
	}
	e.run.heapBytes += liveHeap() - h0
	e.run.heapReports += len(answers) * perRound
	n.stop()
	for i, a := range answers {
		lo := r1 + i*perRound
		e.score(a, e.truth(lo, lo+perRound), perRound)
	}
	level := supported(len(e.run.late), 0.99)
	if late := quantile(e.run.late, level); late > lateCeilingMS {
		e.run.gate("open-loop generator lagged its schedule: p%g lag %.3f ms > %.1f ms", level*100, late, lateCeilingMS)
	}
	reps, err := e.perturb(r1, r1+min(perRound, e.cfg.layerReports))
	if err != nil {
		return err
	}
	return e.layerPass(reps, true, stream...)
}

// schedule is one open-loop sender on one connection: request k is due at
// start + k/rate whether or not earlier requests have been answered.
type schedule struct {
	rate  float64
	start time.Time
	// done is when the previous request completed.
	done time.Time
	// latency is each request's time from its due time to its answer, less
	// the generator's own lag; lag is how long after it could have sent — the
	// later of its due time and the previous answer — the sender woke. Waiting
	// behind a slow earlier answer is the system's doing and stays in the
	// latency; oversleeping is the generator's and is reported as lag.
	latency, lag []float64
}

// send waits until request k is due, runs it and records its timings.
func (s *schedule) send(k int, req func() error) error {
	due := s.start.Add(time.Duration(float64(k) / s.rate * float64(time.Second)))
	time.Sleep(time.Until(due))
	sent := time.Now()
	ready := due
	if s.done.After(ready) {
		ready = s.done
	}
	lag := max(float64(sent.Sub(ready))/1e6, 0)
	err := req()
	s.done = time.Now()
	s.latency = append(s.latency, float64(s.done.Sub(due))/1e6-lag)
	s.lag = append(s.lag, lag)
	return err
}

// queryStream draws count mixed λ=1..4 queries for the live query load.
func (e *env) queryStream(count int) ([]string, error) {
	gen, err := query.NewGenerator(e.schema, selectivity, e.cfg.seed^0x51ed270b27c9f7d)
	if err != nil {
		return nil, err
	}
	out := make([]string, count)
	for i := range out {
		q, err := gen.Generate(1 + i%4)
		if err != nil {
			return nil, err
		}
		out[i] = query.Compact(q, e.schema)
	}
	return out, nil
}
