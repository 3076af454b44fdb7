package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/longitudinal"
	"felip/internal/metrics"
)

// ErrFinalized reports that the collection round has already been closed;
// further reports are refused. The HTTP layer maps it to 409 Conflict.
var ErrFinalized = errors.New("core: collection round already finalized")

// finalizeTimer records wall-clock time spent estimating and post-processing
// at round close (see internal/metrics; exposed via /v1/status).
var finalizeTimer = metrics.GetTimer("core.finalize")

// testHookFinalizeEstimation, when non-nil, runs after Finalize releases the
// collector lock and before estimation starts. Tests use it to hold the
// estimation phase open deterministically while probing liveness.
var testHookFinalizeEstimation func()

// Report is one user's ε-LDP submission: the grid (user group) it belongs to
// and the perturbed cell report in the grid's protocol. It is what actually
// travels from a device to the aggregator in a deployment.
type Report struct {
	// Group identifies the grid the user was assigned to.
	Group int
	// Proto is the grid's frequency-oracle protocol.
	Proto fo.Protocol
	// Value and Seed are the protocol's (value, seed) report pair (see
	// fo.Perturber): the perturbed cell for GRR, the perturbed hash and its
	// hash function for OLH, the Hadamard row and its sign bit for HR.
	Value int
	Seed  uint64
}

// ModeReport is one wire-level submission under a reporting mode: the ε-LDP
// report plus the grid's primary attribute id, which non-FELIP modes carry on
// the wire so the server can cross-check each of a user's m reports against
// the plan.
type ModeReport struct {
	Report
	// Attr is the grid's primary (x-axis) schema attribute index.
	Attr int
}

// Client is the user-side of FELIP: it holds the grid plan published by the
// aggregator and produces the ε-LDP report(s) for a user's record under the
// round's reporting mode. A Client can serve any number of users; each
// Perturb/PerturbAll call uses fresh randomness.
//
// Client is not safe for concurrent use; create one per goroutine (they are
// cheap) or synchronize externally.
type Client struct {
	specs []GridSpec
	mode  fo.ReportMode
	// eps is the per-report budget: the round's ε under FELIP, ε/m under SPL,
	// the amplified ε' under RS+FD.
	eps float64
	rng *fo.Rand
	// perturbers holds each group's client, built on the group's first report.
	perturbers []fo.Perturber
}

// NewClient builds a FELIP-mode client from the published plan. seed controls
// the perturbation randomness (0 draws a fresh seed).
func NewClient(specs []GridSpec, eps float64, seed uint64) (*Client, error) {
	return NewModeClient(specs, fo.ModeFELIP, eps, seed)
}

// NewModeClient builds a client for the round's reporting mode. eps is the
// round's end-to-end budget ε as published in the plan; the client derives
// each report's budget from the mode (ε, ε/m or the amplified ε').
func NewModeClient(specs []GridSpec, mode fo.ReportMode, eps float64, seed uint64) (*Client, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty grid plan")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %v", eps)
	}
	if seed == 0 {
		seed = fo.AutoSeed()
	}
	return &Client{
		specs:      specs,
		mode:       mode,
		eps:        fo.ReportEpsilon(mode, eps, len(specs)),
		rng:        fo.NewRand(seed),
		perturbers: make([]fo.Perturber, len(specs)),
	}, nil
}

// Groups returns the number of user groups m in the plan.
func (c *Client) Groups() int { return len(c.specs) }

// Mode returns the client's reporting mode.
func (c *Client) Mode() fo.ReportMode { return c.mode }

// Perturb produces the ε-LDP report of a user assigned to the given group.
// record returns the user's true value for a schema attribute index; only
// the group's grid attributes are read, and only the perturbed cell leaves
// the client. Perturb is the FELIP-mode path — SPL and RS+FD users submit
// one report per grid via PerturbAll.
func (c *Client) Perturb(group int, record func(attr int) int) (Report, error) {
	if c.mode != fo.ModeFELIP {
		return Report{}, fmt.Errorf("core: Perturb is FELIP-only; mode %v clients use PerturbAll", c.mode)
	}
	if group < 0 || group >= len(c.specs) {
		return Report{}, fmt.Errorf("core: group %d outside plan of %d grids", group, len(c.specs))
	}
	return c.perturbCell(group, c.specs[group].CellOf(record))
}

// PerturbAll produces every report the user's record generates under the
// client's mode: one report for the assigned group under FELIP, one report
// per grid under SPL (each at ε/m) and RS+FD (each at ε', one true grid
// sampled uniformly, fake data elsewhere). group is only read in FELIP mode.
func (c *Client) PerturbAll(group int, record func(attr int) int) ([]ModeReport, error) {
	switch c.mode {
	case fo.ModeFELIP:
		if group < 0 || group >= len(c.specs) {
			return nil, fmt.Errorf("core: group %d outside plan of %d grids", group, len(c.specs))
		}
		rep, err := c.perturbCell(group, c.specs[group].CellOf(record))
		if err != nil {
			return nil, err
		}
		return []ModeReport{{Report: rep, Attr: c.specs[group].AttrX}}, nil
	case fo.ModeSPL:
		out := make([]ModeReport, 0, len(c.specs))
		for g, spec := range c.specs {
			rep, err := c.perturbCell(g, spec.CellOf(record))
			if err != nil {
				return nil, err
			}
			out = append(out, ModeReport{Report: rep, Attr: spec.AttrX})
		}
		return out, nil
	case fo.ModeRSFD:
		realG := c.rng.IntN(len(c.specs))
		out := make([]ModeReport, 0, len(c.specs))
		for g, spec := range c.specs {
			cell := spec.CellOf(record)
			if g != realG {
				cell = c.rng.IntN(spec.L())
			}
			rep, err := c.perturbCell(g, cell)
			if err != nil {
				return nil, err
			}
			out = append(out, ModeReport{Report: rep, Attr: spec.AttrX})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: unknown report mode %v", c.mode)
	}
}

// perturbCell perturbs one grid cell under the client's per-report budget.
func (c *Client) perturbCell(group, cell int) (Report, error) {
	spec := c.specs[group]
	p := c.perturbers[group]
	if p == nil {
		var err error
		if p, err = fo.NewPerturber(spec.Proto, c.eps, spec.L()); err != nil {
			return Report{}, err
		}
		c.perturbers[group] = p
	}
	value, seed, err := p.PerturbReport(cell, c.rng)
	if err != nil {
		return Report{}, err
	}
	return Report{Group: group, Proto: spec.Proto, Value: value, Seed: seed}, nil
}

// Collector is the incremental server side of FELIP: it publishes the grid
// plan, assigns users to groups, accumulates their perturbed reports, and
// finalizes into an Aggregator once the round closes. It is safe for
// concurrent use.
type Collector struct {
	schema *domain.Schema
	opts   Options
	specs  []GridSpec
	// reportEps is the budget each individual report is perturbed at: ε under
	// FELIP, ε/m under SPL, the amplified ε' under RS+FD. Aggregators,
	// validation and partial-state checks all run at this budget.
	reportEps float64
	// aggs holds each grid's aggregator, in plan order.
	aggs []fo.Aggregator

	mu        sync.Mutex
	nextGroup int
	rng       *fo.Rand
	added     int
	rejected  int
	finalized bool
	// finalDone is non-nil once a Finalize is in flight or complete; it
	// closes when finalAgg/finalErr hold the round's one result.
	finalDone chan struct{}
	finalAgg  *Aggregator
	finalErr  error
	// exportDone is non-nil once an ExportPartials is in flight or complete;
	// it closes when exportStates/exportErr hold the seal's one result. A
	// shard collector exports instead of finalizing: the round's raw count
	// vectors travel to the coordinator, which estimates once, globally.
	exportDone   chan struct{}
	exportStates []fo.PartialState
	exportErr    error
}

// NewCollector plans the grids for an expected population of n users and
// returns an open collector. The plan (Specs) is what the aggregator
// publishes to clients.
func NewCollector(schema *domain.Schema, n int, opts Options) (*Collector, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Budget-split plans ride the SPL mode: the incremental collector has no
	// matched-plan ablation (reports arrive from real clients against the
	// published plan), so DivideBudget means the real thing — every user
	// reports every grid, each report at ε/m, on SPL-planned grids.
	if opts.DivideBudget {
		opts.DivideBudget = false
		opts.Mode = fo.ModeSPL
	}
	specs, err := BuildPlan(schema, n, opts)
	if err != nil {
		return nil, err
	}
	// The aggregators run at the per-report budget in every mode.
	reportEps := fo.ReportEpsilon(opts.Mode, opts.Epsilon, len(specs))
	c := &Collector{
		schema:    schema,
		opts:      opts,
		specs:     specs,
		reportEps: reportEps,
		aggs:      make([]fo.Aggregator, len(specs)),
		rng:       fo.NewRand(opts.Seed),
	}
	for g, spec := range specs {
		switch {
		case spec.Proto == fo.OLH:
			// Fold as reports arrive: the grid's memory stays O(L) however
			// many reports the round takes, and the close folds at most one
			// partial batch.
			c.aggs[g] = fo.NewOLHAggregatorStreaming(reportEps, spec.L())
		case spec.Proto == fo.HR && opts.Mode == fo.ModeRSFD:
			// RS+FD's fake-data inversion has no HR form (the planner never
			// emits one; only a forced protocol can get here).
			return nil, fmt.Errorf("core: HR grids are not supported under RS+FD reporting")
		default:
			if c.aggs[g], err = fo.NewAggregator(spec.Proto, reportEps, spec.L()); err != nil {
				return nil, fmt.Errorf("core: grid %d: %w", g, err)
			}
		}
	}
	return c, nil
}

// Specs returns the published grid plan.
func (c *Collector) Specs() []GridSpec {
	out := make([]GridSpec, len(c.specs))
	copy(out, c.specs)
	return out
}

// Epsilon returns the round's end-to-end (per-user) privacy budget ε.
func (c *Collector) Epsilon() float64 { return c.opts.Epsilon }

// Mode returns the round's reporting mode.
func (c *Collector) Mode() fo.ReportMode { return c.opts.Mode }

// Longitudinal returns the round's two-stage memoized-reporting parameters,
// or nil for a one-shot round.
func (c *Collector) Longitudinal() *fo.Longitudinal { return c.opts.Longitudinal }

// ReportEpsilon returns the budget each individual report is perturbed at
// under the round's mode (ε, ε/m or the amplified ε').
func (c *Collector) ReportEpsilon() float64 { return c.reportEps }

// AssignGroup hands out the next user's group. Round-robin keeps the groups
// balanced, matching the paper's uniform population division.
func (c *Collector) AssignGroup() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.nextGroup
	c.nextGroup = (c.nextGroup + 1) % len(c.specs)
	return g
}

// checkLocked validates a report against the plan without recording it.
// Callers hold c.mu. A validation failure (not counting the finalized-round
// refusal, which says nothing about the client) increments the rejected
// counter so malformed-client traffic stays visible to operators.
func (c *Collector) checkLocked(rep Report) error {
	if c.finalized {
		return ErrFinalized
	}
	if err := c.validateLocked(rep); err != nil {
		c.rejected++
		return err
	}
	return nil
}

func (c *Collector) validateLocked(rep Report) error {
	if rep.Group < 0 || rep.Group >= len(c.specs) {
		return fmt.Errorf("core: report for unknown group %d", rep.Group)
	}
	if want := c.specs[rep.Group].Proto; rep.Proto != want {
		return fmt.Errorf("core: group %d expects %v reports, got %v", rep.Group, want, rep.Proto)
	}
	return c.aggs[rep.Group].CheckReport(rep.Value, rep.Seed)
}

// Check validates a report against the plan without recording it. A durable
// server calls Check before appending the report to its write-ahead log, so
// the log only ever holds reports Add is guaranteed to accept.
func (c *Collector) Check(rep Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkLocked(rep)
}

// Add records one user report.
func (c *Collector) Add(rep Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkLocked(rep); err != nil {
		return err
	}
	c.aggs[rep.Group].AddReport(rep.Value, rep.Seed)
	c.added++
	return nil
}

// N returns the number of reports accepted so far.
func (c *Collector) N() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.added
}

// Rejected returns the number of reports refused by plan validation since the
// round opened (unknown group, wrong protocol, out-of-range value — the
// malformed-client traffic the round never counted), plus any out-of-range
// reports the per-grid aggregators refused directly.
func (c *Collector) Rejected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.rejected
	for _, agg := range c.aggs {
		total += agg.Rejected()
	}
	return total
}

// GroupCounts returns the number of reports accepted so far per group. The
// counts let an operator watch group balance and let a restarted aggregator
// verify a replayed round.
func (c *Collector) GroupCounts() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := make([]int, len(c.aggs))
	for g, agg := range c.aggs {
		counts[g] = agg.N()
	}
	return counts
}

// ResumeAssignment positions the round-robin assignment cursor as if the
// given number of users had already been assigned — called after replaying a
// write-ahead log so a restarted round keeps the groups balanced.
func (c *Collector) ResumeAssignment(assigned int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if assigned < 0 {
		assigned = 0
	}
	c.nextGroup = assigned % len(c.specs)
}

// Seal closes the round for ingest — Add and Check refuse from here on —
// without exporting or estimating anything. It is the cheap first half of
// ExportPartials, split out so a server can seal while holding its own lock
// (no report may slip between its durability log and a concurrent export)
// and run the heavier export after releasing it. Idempotent.
func (c *Collector) Seal() {
	c.mu.Lock()
	c.finalized = true
	c.mu.Unlock()
}

// ExportPartials seals the round — Add and Check refuse from here on — and
// returns every grid's exact partial-aggregate state (raw integer count
// vectors, *before* estimation; see fo.PartialState). This is a shard
// server's finalize: instead of estimating locally, the shard ships its
// partials to the merge coordinator, whose single global estimation over the
// summed counts is bit-identical to one collector having seen every report.
//
// ExportPartials is idempotent: every call, including concurrent ones,
// returns the same states — a coordinator whose fetch was lost in transit
// re-pulls the identical state. Unlike Finalize it permits an empty round
// (a shard may legitimately have received no reports).
func (c *Collector) ExportPartials() ([]fo.PartialState, error) {
	c.mu.Lock()
	if done := c.exportDone; done != nil {
		// An export is in flight or complete: wait for its result.
		c.mu.Unlock()
		<-done
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.exportStates, c.exportErr
	}
	c.finalized = true // seal: Add/Check refuse, count vectors are frozen
	done := make(chan struct{})
	c.exportDone = done
	c.mu.Unlock()

	// The per-grid exports run outside c.mu (an OLH export folds any pending
	// reports, O(pending·L)) so N, GroupCounts and Rejected stay live.
	states := make([]fo.PartialState, len(c.aggs))
	var err error
	for g, agg := range c.aggs {
		if states[g], err = agg.ExportState(); err != nil {
			states = nil
			break
		}
	}

	c.mu.Lock()
	c.exportStates, c.exportErr = states, err
	c.mu.Unlock()
	close(done)
	return states, err
}

// ImportPartials folds shard-exported partial states into this collector's
// aggregators, exactly: each set holds one state per grid of the plan, in
// group order (the shape ExportPartials produces). After importing every
// shard, Finalize estimates over the summed counts — bit-identical to
// single-node collection of the union of the shards' report streams.
//
// Every set is validated against the plan before any count is touched, so
// one bad set refuses the whole import and leaves the collector as it was.
func (c *Collector) ImportPartials(shards ...[]fo.PartialState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finalized {
		return ErrFinalized
	}
	total := 0
	for i, states := range shards {
		if len(states) != len(c.specs) {
			return fmt.Errorf("core: partial state set %d: %d states for a plan of %d grids", i, len(states), len(c.specs))
		}
		for g, st := range states {
			spec := c.specs[g]
			if err := st.Check(spec.Proto, c.reportEps, spec.L()); err != nil {
				return fmt.Errorf("core: partial state set %d: grid %d: %w", i, g, err)
			}
			total += st.N
		}
	}
	for _, states := range shards {
		for g, st := range states {
			if err := c.aggs[g].ImportState(st); err != nil {
				// Check passed above; this is unreachable short of a bug.
				return fmt.Errorf("core: grid %d: %w", g, err)
			}
		}
	}
	c.added += total
	return nil
}

// Finalize closes the round: estimates every grid's cell frequencies from
// the accumulated reports (fanned out across GOMAXPROCS via the same helper
// the simulated path uses), post-processes (§5.4), and returns the query
// Aggregator.
//
// The collector lock is held only long enough to mark the round closed and
// snapshot the aggregator set; the estimation runs outside it, so
// N, GroupCounts, Rejected and (failing) Add calls — the server's status and
// health surface — stay live while the round closes. Finalize is idempotent:
// every call, including concurrent ones, returns the same Aggregator.
func (c *Collector) Finalize() (*Aggregator, error) {
	c.mu.Lock()
	if done := c.finalDone; done != nil {
		// A finalization is in flight or complete: wait for its result.
		c.mu.Unlock()
		<-done
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.finalAgg, c.finalErr
	}
	if c.added == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: no reports collected")
	}
	c.finalized = true // Add/Check refuse from here on; aggregators are frozen
	done := make(chan struct{})
	c.finalDone = done
	added := c.added
	specs := c.specs
	c.mu.Unlock()

	if hook := testHookFinalizeEstimation; hook != nil {
		hook()
	}

	start := time.Now()
	groupNs := make([]int, len(specs))
	freqs, err := estimateGrids(len(specs), func(g int) ([]float64, error) {
		agg, L := c.aggs[g], specs[g].L()
		if c.opts.Longitudinal == nil && c.opts.Mode != fo.ModeRSFD {
			groupNs[g] = agg.N()
			return agg.Estimates(), nil
		}
		// Longitudinal and RS+FD rounds estimate from the raw counts: the
		// standard estimator at the report budget is biased by the two-stage
		// chain (memoization at ε_perm composed with the per-round stage) and
		// by the fake-data mix, so the counts are exported and inverted.
		st, err := agg.ExportState()
		if err != nil {
			return nil, err
		}
		groupNs[g] = st.N
		if c.opts.Longitudinal != nil {
			return longitudinal.Estimates(*c.opts.Longitudinal, L, st.Counts, st.N)
		}
		return fo.RSFDEstimates(specs[g].Proto, c.opts.Epsilon, L, len(specs), st.Counts, st.N)
	})
	var agg *Aggregator
	if err == nil {
		// Under SPL and RS+FD every user contributed one report per grid, so
		// the population behind the round is added/m, not added.
		population := added
		if c.opts.Mode != fo.ModeFELIP {
			population = added / len(specs)
		}
		agg, err = assembleAggregator(c.schema, c.opts, specs, population, freqs, groupNs, c.reportEps)
	}
	finalizeTimer.Observe(time.Since(start))

	c.mu.Lock()
	c.finalAgg, c.finalErr = agg, err
	c.mu.Unlock()
	close(done)
	return agg, err
}
