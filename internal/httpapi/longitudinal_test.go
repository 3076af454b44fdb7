package httpapi

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/longitudinal"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// longOptions is the canonical longitudinal round configuration the tests
// share: Epsilon is the per-round budget ε_1, EpsPerm the permanent stage.
func longOptions() core.Options {
	return core.Options{
		Strategy:     core.OHG,
		Epsilon:      2,
		Seed:         31,
		Longitudinal: &fo.Longitudinal{EpsPerm: 3},
	}
}

// longServer boots a non-durable longitudinal server.
func longServer(t *testing.T, n int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, longOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, Dial(ts.URL, ts.Client())
}

// longPopulation owns a fleet of memoized devices that report across rounds:
// the same devices, the same memo store, exactly one report per device per
// round.
type longPopulation struct {
	store   *longitudinal.MemoStore
	fp      string
	stages  []longitudinal.Stages // per group
	specs   []core.GridSpec
	ds      *dataset.Dataset
	rng     *fo.Rand
	devices int
}

func newLongPopulation(t *testing.T, plan wire.PlanMessage, memoPath string, devices int, dataSeed, rngSeed uint64) *longPopulation {
	t.Helper()
	if plan.Longitudinal == nil {
		t.Fatal("plan does not advertise longitudinal reporting")
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]longitudinal.Stages, len(specs))
	for g, sp := range specs {
		if sp.Proto != fo.GRR {
			t.Fatalf("longitudinal plan grid %d runs %v, want GRR", g, sp.Proto)
		}
		stages[g], err = longitudinal.NewStages(*plan.Longitudinal, sp.L())
		if err != nil {
			t.Fatal(err)
		}
	}
	store, err := longitudinal.OpenMemoStore(memoPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	schema, err := plan.Schema()
	if err != nil {
		t.Fatal(err)
	}
	return &longPopulation{
		store:   store,
		fp:      fmt.Sprintf("%08x", plan.Fingerprint()),
		stages:  stages,
		specs:   specs,
		ds:      dataset.NewNormal().Generate(schema, devices, dataSeed),
		rng:     fo.NewRand(rngSeed),
		devices: devices,
	}
}

// report submits device dev's round-r report; the idempotency key is
// deterministic in (device, round), so a retry after a lost ack dedupes.
func (p *longPopulation) report(ctx context.Context, t *testing.T, cl *Client, dev, round int) {
	t.Helper()
	group := dev % len(p.specs)
	cell := p.specs[group].CellOf(func(attr int) int { return p.ds.Value(dev, attr) })
	d, err := longitudinal.NewDevice(fmt.Sprintf("dev-%d", dev), p.fp, group, cell, p.stages[group], p.store, p.rng)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Report{Group: group, Proto: fo.GRR, Value: v}
	if _, err := cl.ReportLongitudinalWithID(ctx, fmt.Sprintf("dev-%d-r%d", dev, round), rep); err != nil {
		t.Fatal(err)
	}
}

// TestLongitudinalEndToEndOverHTTP runs the tentpole path: the same device
// population reports across three rounds through the memoized two-stage
// chain; each round finalizes and serves queries; the status accounting shows
// a fixed cumulative spend (ε_perm + ε_1) while the fresh-ε equivalent grows
// linearly with the round count.
func TestLongitudinalEndToEndOverHTTP(t *testing.T) {
	const n, rounds = 240, 3
	ctx := context.Background()
	_, _, cl := longServer(t, n)

	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Longitudinal == nil {
		t.Fatal("longitudinal plan published without the budgets")
	}
	if plan.Longitudinal.EpsPerm != 3 || plan.Longitudinal.Eps1 != 2 {
		t.Fatalf("plan budgets %+v, want eps_perm=3 eps1=2", plan.Longitudinal)
	}
	pop := newLongPopulation(t, plan, filepath.Join(t.TempDir(), "memo.jsonl"), n, 41, 43)

	for r := 1; r <= rounds; r++ {
		for dev := 0; dev < n; dev++ {
			pop.report(ctx, t, cl, dev, r)
		}
		if total, err := cl.Finalize(ctx); err != nil || total != n {
			t.Fatalf("round %d finalize: total=%d err=%v, want %d", r, total, err, n)
		}
		st, err := cl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Round != r {
			t.Fatalf("status round %d, want %d", st.Round, r)
		}
		if !st.Longitudinal.Equal(plan.Longitudinal) {
			t.Fatalf("status longitudinal %+v, want %+v", st.Longitudinal, plan.Longitudinal)
		}
		if st.EpsPerRound != 2 {
			t.Fatalf("round %d: eps_per_round = %v, want 2", r, st.EpsPerRound)
		}
		if st.EpsCumulative != 5 {
			t.Fatalf("round %d: eps_cumulative = %v, want fixed 5 (= eps_perm + eps1)", r, st.EpsCumulative)
		}
		if want := float64(r) * 2; st.EpsFreshEquivalent != want {
			t.Fatalf("round %d: eps_fresh_equivalent = %v, want %v", r, st.EpsFreshEquivalent, want)
		}
		resp, err := cl.Query(ctx, "num0=0..15")
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(resp.Estimate) || resp.Estimate < -1 || resp.Estimate > 2 {
			t.Fatalf("round %d estimate %v out of any plausible range", r, resp.Estimate)
		}
		if r < rounds {
			if _, err := cl.NextRound(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Exactly one memoization per device across all rounds: the ε_perm spend
	// happened once, not once per round.
	if got := pop.store.Len(); got != n {
		t.Fatalf("memo store holds %d entries after %d rounds, want %d (one per device)", got, rounds, n)
	}
}

// TestLongitudinalRefusalBothDirections pins the round-integrity contract on
// the single-report path: a longitudinal round refuses one-shot reports, a
// one-shot round refuses longitudinal reports, and both chargings land in the
// rejection counters.
func TestLongitudinalRefusalBothDirections(t *testing.T) {
	ctx := context.Background()

	_, _, longCl := longServer(t, 100)
	plan, err := longCl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	oneShot := core.Report{Group: 0, Proto: specs[0].Proto, Value: 0}
	if _, err := longCl.ReportWithID(ctx, "stray-one-shot", oneShot); err == nil {
		t.Fatal("one-shot report accepted by a longitudinal round")
	} else if !strings.Contains(err.Error(), "longitudinal") {
		t.Fatalf("refusal does not name the longitudinal plan: %v", err)
	}
	st, err := longCl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("refused one-shot report not counted")
	}

	_, _, plainCl := modeServer(t, fo.ModeFELIP, 100)
	if _, err := plainCl.ReportLongitudinalWithID(ctx, "stray-long",
		core.Report{Group: 0, Proto: fo.GRR, Value: 0}); err == nil {
		t.Fatal("longitudinal report accepted by a one-shot round")
	} else if !strings.Contains(err.Error(), "one-shot") {
		t.Fatalf("refusal does not name the one-shot plan: %v", err)
	}
}

// TestLongitudinalRoundRefusesBatchFrames pins that the binary batch path —
// whose frame format carries no longitudinal marker — is refused wholesale by
// a longitudinal round, with every claimed report charged.
func TestLongitudinalRoundRefusesBatchFrames(t *testing.T) {
	ctx := context.Background()
	srv, _, cl := longServer(t, 100)
	batch := []wire.BatchReport{
		{ID: "f-0", Report: core.Report{Group: 0, Proto: fo.GRR, Value: 0}},
		{ID: "f-1", Report: core.Report{Group: 1, Proto: fo.GRR, Value: 1}},
	}
	frame, err := wire.EncodeFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.IngestFrame(frame); err == nil || !strings.Contains(err.Error(), "longitudinal") {
		t.Fatalf("batch frame ingested by a longitudinal round: %v", err)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < len(batch) {
		t.Fatalf("rejected = %d, want at least %d (every report the frame claimed)", st.Rejected, len(batch))
	}
	if st.Reports != 0 {
		t.Fatalf("reports = %d after a refused frame, want 0", st.Reports)
	}
}

// TestLongitudinalWALCrossReplayRefused pins satellite (c): a WAL segment of
// longitudinal records must refuse to replay into a one-shot round, and a
// one-shot segment must refuse to replay into a longitudinal round — loudly,
// at UseWAL time, before any record is counted.
func TestLongitudinalWALCrossReplayRefused(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)

	t.Run("longitudinal records vs one-shot plan", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "long.wal")
		l, recs, err := reportlog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatal("fresh log not empty")
		}
		for i := 0; i < 5; i++ {
			if err := l.Append(reportlog.ReportRecordLongitudinal(fmt.Sprintf("d-%d", i), 0, "GRR", 0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		srv, err := NewServer(schema, 100, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		l2, recs2, err := reportlog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		err = srv.UseWAL(l2, recs2)
		if err == nil || !strings.Contains(err.Error(), "longitudinal report against the round's one-shot plan") {
			t.Fatalf("longitudinal segment replayed into a one-shot round: %v", err)
		}
	})

	t.Run("one-shot records vs longitudinal plan", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "oneshot.wal")
		l, _, err := reportlog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := l.Append(reportlog.ReportRecord(fmt.Sprintf("d-%d", i), 0, "GRR", 0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		srv, err := NewServer(schema, 100, longOptions())
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		l2, recs2, err := reportlog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		err = srv.UseWAL(l2, recs2)
		if err == nil || !strings.Contains(err.Error(), "one-shot report against the round's longitudinal plan") {
			t.Fatalf("one-shot segment replayed into a longitudinal round: %v", err)
		}
	})
}

// TestLongitudinalChaosRestartMidSequenceHTTP is the end-to-end chaos drill:
// mid-round, both the server (kill -9, WAL replay) and the device fleet
// (memo store closed and reopened) restart. The memoized permanent values
// must survive bit-identically — no device re-spends ε_perm — the replayed
// server must accept the longitudinal segment against its longitudinal plan,
// retries must dedupe, and the round must finalize with every device counted
// exactly once.
func TestLongitudinalChaosRestartMidSequenceHTTP(t *testing.T) {
	const n = 160
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "round.wal")
	memoPath := filepath.Join(dir, "memo.jsonl")
	schema := dataset.MixedSchema(2, 32, 2, 4)

	boot := func() (*Server, *httptest.Server, *Client, int) {
		srv, err := NewServer(schema, n, longOptions())
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(t.Logf)
		l, recs, err := reportlog.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.UseWAL(l, recs); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, ts, Dial(ts.URL, ts.Client()), len(recs)
	}

	srv, ts, cl, replayed := boot()
	if replayed != 0 {
		t.Fatalf("fresh WAL replayed %d records", replayed)
	}
	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pop := newLongPopulation(t, plan, memoPath, n, 41, 43)
	for dev := 0; dev < n/2; dev++ {
		pop.report(ctx, t, cl, dev, 1)
	}
	memoBefore := make([]int, n/2)
	for dev := 0; dev < n/2; dev++ {
		e, ok := pop.store.Get(fmt.Sprintf("dev-%d", dev))
		if !ok {
			t.Fatalf("device %d reported without a memo entry", dev)
		}
		memoBefore[dev] = e.Value
	}

	// kill -9 both planes.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pop.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Server restart: the longitudinal segment replays into the longitudinal
	// plan; every acknowledged report survived.
	srv2, ts2, cl2, replayed2 := boot()
	defer ts2.Close()
	defer srv2.Close()
	if replayed2 != n/2 {
		t.Fatalf("replayed %d records after restart, want %d", replayed2, n/2)
	}

	// Device fleet restart: same memo store, same plan. The permanent values
	// must be bit-identical and no fresh ε_perm randomness may be drawn.
	pop2 := newLongPopulation(t, plan, memoPath, n, 41, 47)
	if got := pop2.store.Len(); got != n/2 {
		t.Fatalf("memo store lost entries across restart: %d, want %d", got, n/2)
	}
	rngBefore := *pop2.rng
	for dev := 0; dev < n/2; dev++ {
		e, ok := pop2.store.Get(fmt.Sprintf("dev-%d", dev))
		if !ok || e.Value != memoBefore[dev] {
			t.Fatalf("device %d memo drifted across restart: %+v, want value %d", dev, e, memoBefore[dev])
		}
		group := dev % len(pop2.specs)
		cell := pop2.specs[group].CellOf(func(attr int) int { return pop2.ds.Value(dev, attr) })
		d, err := longitudinal.NewDevice(fmt.Sprintf("dev-%d", dev), pop2.fp, group, cell, pop2.stages[group], pop2.store, pop2.rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.Memo() != memoBefore[dev] {
			t.Fatalf("device %d re-memoized after restart: %d, want %d", dev, d.Memo(), memoBefore[dev])
		}
	}
	if rngAfter := *pop2.rng; rngAfter != rngBefore {
		t.Fatal("restart consumed device randomness: a fresh eps_perm was spent re-memoizing")
	}

	// A retried pre-crash report dedupes instead of double-counting.
	group := 0 % len(pop2.specs)
	cell := pop2.specs[group].CellOf(func(attr int) int { return pop2.ds.Value(0, attr) })
	d0, err := longitudinal.NewDevice("dev-0", pop2.fp, group, cell, pop2.stages[group], pop2.store, pop2.rng)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d0.Report()
	if err != nil {
		t.Fatal(err)
	}
	// Same idempotency key, possibly different per-round draw — the server's
	// dedup answers by key; submit the original payload shape (fresh draw is
	// fine for a conflict check only if the key matches the payload, so reuse
	// a fresh key-compatible call only when payloads match; here we assert
	// via a brand-new submission of the SAME key and accept either duplicate
	// or conflict as "not double-counted").
	_, _ = v, err
	stBefore, err := cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.ReportLongitudinalWithID(ctx, "dev-0-r1",
		core.Report{Group: group, Proto: fo.GRR, Value: v}); err != nil {
		// A differing per-round draw under a reused key is a 409 conflict —
		// also "not double-counted".
		if !strings.Contains(err.Error(), "reused") {
			t.Fatal(err)
		}
	}
	stAfter, err := cl2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stAfter.Reports != stBefore.Reports {
		t.Fatalf("retried report changed the count: %d -> %d", stBefore.Reports, stAfter.Reports)
	}

	// The second half of the fleet completes the round.
	for dev := n / 2; dev < n; dev++ {
		pop2.report(ctx, t, cl2, dev, 1)
	}
	if total, err := cl2.Finalize(ctx); err != nil || total != n {
		t.Fatalf("finalize after chaos: total=%d err=%v, want %d", total, err, n)
	}
}

// TestLongitudinalTrendOverRounds runs the archive integration: a durable
// longitudinal server collects several rounds from the same memoized
// population, archives each, and then answers "trend" window queries
// (AnswerRange and AnswerDecayed semantics) across the archived rounds —
// all under the fixed cumulative budget ε_perm + ε_1.
func TestLongitudinalTrendOverRounds(t *testing.T) {
	const n, rounds = 200, 4
	ctx := context.Background()
	dir := t.TempDir()

	schema := dataset.MixedSchema(2, 32, 2, 4)
	srv, err := NewServer(schema, n, longOptions())
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL, ts.Client())

	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pop := newLongPopulation(t, plan, filepath.Join(dir, "memo.jsonl"), n, 41, 43)
	for r := 1; r <= rounds; r++ {
		for dev := 0; dev < n; dev++ {
			pop.report(ctx, t, cl, dev, r)
		}
		if _, err := cl.Finalize(ctx); err != nil {
			t.Fatal(err)
		}
		if r < rounds {
			if _, err := cl.NextRound(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := store.Rounds(); len(got) != rounds {
		t.Fatalf("archived rounds = %v, want %d of them", got, rounds)
	}

	// Window queries across the archived longitudinal rounds: a plain range
	// mean and a half-life-decayed trend, both population-weighted.
	where := url.QueryEscape("num0=0..15")
	var rangeResp wire.QueryResponse
	getJSON(t, ts.URL+"/v1/query?where="+where+"&rounds=1..4", &rangeResp)
	if rangeResp.N != n*rounds {
		t.Fatalf("window query N = %d, want %d (population-weighted across rounds)", rangeResp.N, n*rounds)
	}
	if rangeResp.Round != rounds {
		t.Fatalf("window query freshest round = %d, want %d", rangeResp.Round, rounds)
	}
	if math.IsNaN(rangeResp.Estimate) || rangeResp.Estimate < -1 || rangeResp.Estimate > 2 {
		t.Fatalf("window estimate %v out of any plausible range", rangeResp.Estimate)
	}
	var decayResp wire.QueryResponse
	getJSON(t, ts.URL+"/v1/query?where="+where+"&rounds=all&halflife=2", &decayResp)
	if math.IsNaN(decayResp.Estimate) || decayResp.Estimate < -1 || decayResp.Estimate > 2 {
		t.Fatalf("decayed estimate %v out of any plausible range", decayResp.Estimate)
	}

	// The per-round answers agree with each other to within noise: the same
	// memoized population reported every round, so the trend is flat up to
	// per-round perturbation noise.
	var r1, r4 wire.QueryResponse
	getJSON(t, ts.URL+"/v1/query?where="+where+"&round=1", &r1)
	getJSON(t, ts.URL+"/v1/query?where="+where+"&round=4", &r4)
	if math.Abs(r1.Estimate-r4.Estimate) > 0.5 {
		t.Fatalf("flat trend drifted implausibly: round1=%v round4=%v", r1.Estimate, r4.Estimate)
	}

	// The fixed-budget claim, from the operator's view after 4 rounds.
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EpsCumulative != 5 {
		t.Fatalf("after %d rounds eps_cumulative = %v, want fixed 5", rounds, st.EpsCumulative)
	}
	if st.EpsFreshEquivalent != float64(rounds)*2 {
		t.Fatalf("eps_fresh_equivalent = %v, want %v", st.EpsFreshEquivalent, float64(rounds)*2)
	}
}
