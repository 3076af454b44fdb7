package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/metrics"
	"felip/internal/wire"
)

// Config describes a coordinator's cluster.
type Config struct {
	// Schema, N and Opts plan the round — identical on every node. BuildPlan
	// is deterministic in them, so the coordinator and every shard publish
	// the same plan without coordination.
	Schema *domain.Schema
	N      int
	Opts   core.Options
	// Shards are statically configured shard base URLs, seeded into the
	// membership as logical shards shard0..shardN-1 — a fixed fleet exempt
	// from heartbeat eviction. May be empty: an elastic cluster starts with
	// no members and shards register themselves at POST /v1/shard/register.
	Shards []string
	// HeartbeatTimeout is how stale a registered shard's heartbeat may grow
	// before the coordinator declares it dead and promotes its follower
	// (0 disables liveness eviction; registrations are still accepted).
	HeartbeatTimeout time.Duration
	// Clock overrides the membership's time source (tests; nil = time.Now).
	Clock func() time.Time
	// HTTPClient carries the coordinator's shard calls (nil =
	// http.DefaultClient).
	HTTPClient *http.Client
	// Retry is the per-shard-call retry policy; state pulls and round
	// transitions are idempotent, so retrying is always safe.
	Retry httpapi.RetryPolicy
	// Archive, when non-nil, persists every merged round: the coordinator
	// restores the newest archived round at startup (httpapi.Server.Recover;
	// answers stay bit-identical across a kill -9) and serves historical
	// queries from the store. The store should be opened with the plan's
	// fingerprint so a drifted configuration is refused.
	Archive *archive.Store
	// Logf is the operational log (nil = log.Printf).
	Logf func(format string, args ...any)
}

// ShardInfo is the coordinator's per-shard roll-up, refreshed at each round
// finalize from the shards' state messages.
type ShardInfo struct {
	// ID is the shard's self-reported name; Name the logical membership name
	// it is registered under; Base its URL at pull time.
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Base string `json:"base"`
	// Reports and Rejected are the shard's accepted and refused totals for
	// the finalized round.
	Reports  int `json:"reports"`
	Rejected int `json:"rejected"`
	// WALReplayed is the shard's crash-recovery counter: report records it
	// replayed from its write-ahead log since startup.
	WALReplayed int `json:"wal_replayed"`
	// Mode is the reporting mode the shard ran the round under ("FELIP",
	// "SPL", "RS+FD"). Always the coordinator's own mode — a shard claiming
	// another mode fails the merge before any ShardInfo is published.
	Mode string `json:"mode"`
}

// Coordinator drives collection rounds across a fleet of shard servers and
// serves the merged result. The merged round itself is an httpapi.Server fed
// shard states instead of reports: its plan, round cursor, close, archive,
// restart and query endpoints are the server's. The coordinator does what
// only it can: FinalizeRound pulls every shard's sealed partial state, checks
// it, and hands the set to the server's FinalizeMerged, which merges the
// integer counts and estimates exactly once; AdvanceRound walks every shard to
// the next round idempotently before the server opens it. It also owns the
// cluster's membership: shards register and heartbeat with it, and when a
// primary's heartbeat lapses it promotes the shard's follower.
type Coordinator struct {
	// srv owns the merged round. Lock order: c.mu before srv's lock; srv
	// never calls into the coordinator.
	srv   *httpapi.Server
	logf  func(format string, args ...any)
	hc    *http.Client
	retry httpapi.RetryPolicy

	// lifecycle serializes FinalizeRound/AdvanceRound so two operators cannot
	// interleave round transitions; mu guards the fields below, and is never
	// held across a network call.
	lifecycle sync.Mutex
	mu        sync.Mutex
	// sealing is true while a FinalizeRound is pulling shard states: a shard
	// registering in that window joins the NEXT round, so the in-flight
	// seal's pull set never changes under it.
	sealing   bool
	shards    []ShardInfo
	members   *Membership
	failovers int64
	dials     map[string]*httpapi.Client
}

// New plans the round and seeds the membership from cfg.Shards (which may be
// empty — an elastic cluster starts bare and shards register themselves).
// The plan is computed locally — deterministically identical to every
// shard's — so devices may fetch it from the coordinator or any shard
// interchangeably. With cfg.Archive the merged round comes up through
// httpapi.Server.Recover, the one restart path: the newest archived round is
// served again, finalized, and if the cluster had already advanced past it
// the next idempotent AdvanceRound catches the coordinator up (shards already
// in the target round answer 200).
func New(cfg Config) (*Coordinator, error) {
	srv, err := httpapi.NewServer(cfg.Schema, cfg.N, cfg.Opts)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	srv.SetLogger(logf)
	if cfg.Archive != nil {
		if err := srv.UseArchive(cfg.Archive, nil); err != nil {
			return nil, err
		}
	}
	if err := srv.Recover(nil, 1); err != nil {
		return nil, err
	}
	c := &Coordinator{
		srv:     srv,
		logf:    logf,
		hc:      cfg.HTTPClient,
		retry:   cfg.Retry,
		members: newMembership(cfg.Clock, cfg.HeartbeatTimeout),
		dials:   make(map[string]*httpapi.Client),
	}
	c.members.seed(cfg.Shards, 1)
	c.updateMembershipGaugesLocked()
	return c, nil
}

// dialLocked returns the cached client for a base URL. Caller holds c.mu.
func (c *Coordinator) dialLocked(base string) *httpapi.Client {
	cl, ok := c.dials[base]
	if !ok {
		cl = httpapi.DialRetrying(base, c.hc, c.retry)
		c.dials[base] = cl
	}
	return cl
}

// shardTarget is one member shard a seal or round transition addresses.
type shardTarget struct {
	name, base string
	cl         *httpapi.Client
}

// targetsLocked resolves the member shards in round's pull set. Caller holds
// c.mu.
func (c *Coordinator) targetsLocked(round int) []shardTarget {
	set := c.members.pullSet(round)
	targets := make([]shardTarget, len(set))
	for i, m := range set {
		targets[i] = shardTarget{name: m.name, base: m.base, cl: c.dialLocked(m.base)}
	}
	return targets
}

// Round reports the collection round the cluster is in (1-based).
func (c *Coordinator) Round() int { return c.srv.Round() }

// RegisterShard applies a shard (or follower) registration. A primary that
// registers while a round is sealing — or after it sealed — joins the next
// round: the in-flight merge's pull set must not change under it, and the
// response's JoinRound tells the shard which round to open locally
// (httpapi.Server.Recover) so the cluster and the shard agree from the
// first report.
func (c *Coordinator) RegisterShard(msg wire.RegisterMessage) (wire.RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.srv.Status()
	join := st.Round
	if c.sealing || st.Finalized {
		join++
	}
	epoch, joined, err := c.members.register(msg, join)
	if err != nil {
		return wire.RegisterResponse{}, err
	}
	c.updateMembershipGaugesLocked()
	c.logf("cluster: registered %s %q at %s (epoch %d, joins round %d)", msg.Role, msg.Name, msg.Base, epoch, joined)
	return wire.RegisterResponse{Epoch: epoch, JoinRound: joined}, nil
}

// Heartbeat records a node's liveness report and refreshes the per-shard
// replication-lag gauges.
func (c *Coordinator) Heartbeat(msg wire.HeartbeatMessage) (wire.HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch, err := c.members.heartbeat(msg)
	if err != nil {
		return wire.HeartbeatResponse{}, err
	}
	c.updateMembershipGaugesLocked()
	return wire.HeartbeatResponse{Epoch: epoch}, nil
}

// MembershipSnapshot renders the routable membership for clients.
func (c *Coordinator) MembershipSnapshot() wire.MembershipMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members.snapshot(c.srv.Round())
}

// Epoch reports the current membership epoch.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members.epoch
}

// updateMembershipGaugesLocked refreshes the membership gauges. Caller holds
// c.mu.
func (c *Coordinator) updateMembershipGaugesLocked() {
	metrics.GetGauge("cluster.members").Set(int64(len(c.members.order)))
	metrics.GetGauge("cluster.epoch").Set(c.members.epoch)
	metrics.GetGauge("cluster.failovers_total").Set(c.failovers)
	for i, name := range c.members.order {
		segs, _ := lagOf(c.members.members[name].follower)
		shardGauge(i, "replication_lag_segments").Set(int64(segs))
	}
}

// CheckLiveness evaluates every registered primary's heartbeat age and fails
// over the lapsed ones that have a live follower: the follower is asked to
// verify its shipped-segment CRC chain, replay it, and take over
// (POST /v1/replica/promote); only after it acknowledges does the membership
// swap the logical shard's address to the follower and bump the epoch, so
// routing clients re-resolve the same shard name to the new node. A lapsed
// primary without a live follower stays dead in place — rerouting its keys
// would silently drop reports it already acknowledged. Returns the logical
// shards that failed over. felipserver runs this on a timer; tests drive it
// with an injected clock.
func (c *Coordinator) CheckLiveness(ctx context.Context) ([]string, error) {
	c.mu.Lock()
	candidates := c.members.lapsed()
	round := c.srv.Round()
	clients := make([]*httpapi.Client, len(candidates))
	for i, cand := range candidates {
		clients[i] = c.dialLocked(cand.followerBase)
	}
	c.mu.Unlock()

	var promoted []string
	var firstErr error
	for i, cand := range candidates {
		if err := ctx.Err(); err != nil {
			return promoted, err
		}
		c.logf("cluster: shard %q heartbeat lapsed; promoting follower at %s", cand.name, cand.followerBase)
		resp, err := clients[i].PromoteReplica(ctx, round)
		if err != nil {
			c.logf("cluster: promoting %q follower at %s: %v (will retry next liveness check)",
				cand.name, cand.followerBase, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: promoting %q follower: %w", cand.name, err)
			}
			continue
		}
		c.mu.Lock()
		if c.members.promote(cand.name, cand.followerBase) {
			c.failovers++
			promoted = append(promoted, cand.name)
			c.updateMembershipGaugesLocked()
			c.logf("cluster: promoted %q follower at %s (round %d, %d reports replayed, epoch %d)",
				cand.name, cand.followerBase, resp.Round, resp.Replayed, c.members.epoch)
		}
		c.mu.Unlock()
	}
	return promoted, firstErr
}

// StartLiveness runs CheckLiveness on a ticker until the context is
// cancelled. The interval defaults to a third of the heartbeat timeout.
func (c *Coordinator) StartLiveness(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = c.members.timeout / 3
	}
	if interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := c.CheckLiveness(ctx); err != nil && ctx.Err() == nil {
					c.logf("cluster: liveness check: %v", err)
				}
			}
		}
	}()
}

// shardGauge names a per-shard metric; shards are identified by membership
// index so the gauge set is stable across shard restarts and renames.
func shardGauge(i int, what string) *metrics.Gauge {
	return metrics.GetGauge(fmt.Sprintf("cluster.shard%d.%s", i, what))
}

// describeLongitudinal renders an optional longitudinal config for refusal
// messages.
func describeLongitudinal(l *fo.Longitudinal) string {
	if l == nil {
		return "one-shot"
	}
	return fmt.Sprintf("eps_perm=%v eps1=%v", l.EpsPerm, l.Eps1)
}

// FinalizeRound closes the round cluster-wide, exactly once: it pulls every
// member shard's sealed partial-aggregate state (the first pull is what seals
// the shard), verifies each message's checksum, round, mode and longitudinal
// budgets, and hands the states to the merged round's FinalizeMerged, which
// sums the integer count vectors, runs the estimation pipeline once over the
// sums, serves the engine fully warmed and archives the round. Repeat calls
// return the same report count. The state pulls ride the client's retry
// policy and honor ctx: the first pull to fail permanently cancels its
// siblings, so one wedged or dead shard cannot hold the round open past the
// caller's deadline. A failed finalize can simply be retried — no shard state
// is consumed by a failed attempt, and a refused merge imports nothing.
func (c *Coordinator) FinalizeRound(ctx context.Context) (int, error) {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	c.mu.Lock()
	st := c.srv.Status()
	if st.Finalized {
		c.mu.Unlock()
		return st.Reports, nil
	}
	round := st.Round
	c.sealing = true
	targets := c.targetsLocked(round)
	if len(targets) == 0 {
		c.sealing = false
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: no member shards to finalize round %d", round)
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.sealing = false
		c.mu.Unlock()
	}()

	// Pull every shard's state concurrently; each pull seals its shard. The
	// first permanent failure cancels the remaining pulls — a wedged shard
	// must not keep the round open after the outcome is already decided. The
	// merge below runs in member order, though order cannot matter: integer
	// count addition commutes.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	msgs := make([]wire.ShardStateMessage, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg shardTarget) {
			defer wg.Done()
			msgs[i], errs[i] = tg.cl.ShardState(pctx)
			if errs[i] != nil {
				cancel()
			}
		}(i, tg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("cluster: shard %q (%s) state pull: %w", targets[i].name, targets[i].base, err)
		}
	}

	states := make([][]fo.PartialState, len(msgs))
	names := make([]string, len(msgs))
	infos := make([]ShardInfo, len(msgs))
	for i, msg := range msgs {
		if msg.Round != round {
			return 0, fmt.Errorf("cluster: shard %q (%s) is in round %d, coordinator in round %d",
				targets[i].name, targets[i].base, msg.Round, round)
		}
		// Refuse a mixed-mode merge loudly: partial counts folded under
		// different reporting modes were perturbed at different budgets (and,
		// for RS+FD, mixed with fake data), so summing them would silently
		// corrupt every estimate. Checksums already verified, so a mismatch is
		// a misconfigured shard, not line damage.
		shardMode, err := msg.ReportMode()
		if err != nil {
			return 0, fmt.Errorf("cluster: shard %q (%s): %w", targets[i].name, targets[i].base, err)
		}
		if shardMode.String() != st.Mode {
			return 0, fmt.Errorf("cluster: shard %q (%s) ran round %d in mode %v; the cluster plan runs %v — refusing the mixed-mode merge",
				targets[i].name, targets[i].base, round, shardMode, st.Mode)
		}
		// Same discipline for the longitudinal plane: counts drawn through a
		// memoized two-stage chain invert under (ε_perm, ε_1), not the one-shot
		// channel, so a shard whose longitudinal parameters disagree with the
		// plan's (or that ran one-shot against a longitudinal plan, or vice
		// versa) cannot be summed into this round.
		if !msg.Longitudinal.Equal(st.Longitudinal) {
			return 0, fmt.Errorf("cluster: shard %q (%s) ran round %d with longitudinal parameters %v; the cluster plan has %v — refusing the merge",
				targets[i].name, targets[i].base, round, describeLongitudinal(msg.Longitudinal), describeLongitudinal(st.Longitudinal))
		}
		if states[i], err = msg.States(); err != nil {
			return 0, fmt.Errorf("cluster: shard %q (%s): %w", targets[i].name, targets[i].base, err)
		}
		names[i] = targets[i].name
		infos[i] = ShardInfo{
			ID:          msg.ShardID,
			Name:        targets[i].name,
			Base:        targets[i].base,
			Reports:     msg.Reports,
			Rejected:    msg.Rejected,
			WALReplayed: msg.WALReplayed,
			Mode:        shardMode.String(),
		}
		c.logf("cluster: shard %q (%s) round %d: %d reports, %d rejected, %d wal-replayed",
			msg.ShardID, targets[i].base, round, msg.Reports, msg.Rejected, msg.WALReplayed)
	}

	// A refused merge names its state set by index: set i is names[i]'s.
	n, err := c.srv.FinalizeMerged(states)
	if err != nil {
		return 0, fmt.Errorf("cluster: merging round %d from shards %v: %w", round, names, err)
	}
	for i, info := range infos {
		shardGauge(i, "reports").Set(int64(info.Reports))
		shardGauge(i, "rejected").Set(int64(info.Rejected))
		shardGauge(i, "wal_replayed").Set(int64(info.WALReplayed))
		// Per-mode accepted/rejected gauges: one mode per round, so the
		// mode-qualified gauges mirror the totals under the mode's name and an
		// operator dashboard can break traffic down without parsing ShardInfo.
		shardGauge(i, "accepted."+info.Mode).Set(int64(info.Reports))
		shardGauge(i, "rejected."+info.Mode).Set(int64(info.Rejected))
	}
	c.mu.Lock()
	c.shards = infos
	c.mu.Unlock()
	return n, nil
}

// AdvanceRound opens the next collection round cluster-wide. target names the
// round the caller wants open (0 = current+1): an already-applied transition
// succeeds without side effects, a skip is refused. Each member shard is
// driven with the same idempotent transition, so a coordinator that crashed
// after advancing only some shards simply retries — shards already in the
// target round answer 200 and the stragglers catch up. Shards that joined
// for the next round are already there, and answer 200 the same way. The
// merged round advances last, so a walk that fails part-way leaves the
// coordinator where it was and its retry walks the stragglers again.
func (c *Coordinator) AdvanceRound(ctx context.Context, target int) (int, error) {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	st := c.srv.Status()
	cur := st.Round
	if target == cur {
		return cur, nil
	}
	if target != 0 && target != cur+1 {
		return 0, fmt.Errorf("cluster: round is %d; cannot jump to round %d", cur, target)
	}
	if !st.Finalized {
		return 0, fmt.Errorf("cluster: round %d not finalized; finalize before opening the next round", cur)
	}
	next := cur + 1
	c.mu.Lock()
	targets := c.targetsLocked(next)
	c.mu.Unlock()
	for _, tg := range targets {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("cluster: advancing to round %d: %w", next, err)
		}
		got, err := tg.cl.NextRoundTo(ctx, next)
		if err != nil {
			return 0, fmt.Errorf("cluster: advancing shard %q (%s) to round %d: %w", tg.name, tg.base, next, err)
		}
		if got != next {
			return 0, fmt.Errorf("cluster: shard %q (%s) reports round %d after transition to %d",
				tg.name, tg.base, got, next)
		}
	}
	return c.srv.AdvanceRound(next)
}

// ClusterStatus is the operator view returned by the coordinator's
// GET /v1/status.
type ClusterStatus struct {
	// Round is the collection round the cluster is in; ServedRound the round
	// answering queries (0 until the first finalize).
	Round       int  `json:"round"`
	ServedRound int  `json:"served_round,omitempty"`
	Finalized   bool `json:"finalized"`
	// Mode is the cluster's reporting mode ("FELIP", "SPL", "RS+FD") — fixed
	// by the plan and enforced against every shard at merge time.
	Mode string `json:"mode"`
	// Reports is the round's merged accepted-report total (0 until its shard
	// states are merged).
	Reports int `json:"reports"`
	// Epoch is the membership epoch; Members the live membership with
	// per-shard replication lag; Failovers how many follower promotions this
	// coordinator has performed.
	Epoch     int64             `json:"epoch"`
	Members   []wire.MemberInfo `json:"members,omitempty"`
	Failovers int64             `json:"failovers"`
	// Shards is the per-shard roll-up from the last finalize — including each
	// shard's rejected-submission and WAL-replay counters, so one status call
	// shows both misbehaving clients and crash recoveries anywhere in the
	// cluster.
	Shards []ShardInfo `json:"shards,omitempty"`
	// Metrics is the process-wide instrument snapshot (includes the
	// cluster.shardK.* gauges plus cluster.members / cluster.epoch /
	// cluster.failovers_total).
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status reports the cluster round state, membership, and per-shard counters.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateMembershipGaugesLocked()
	st := c.srv.Status()
	return ClusterStatus{
		Round:       st.Round,
		ServedRound: st.ServedRound,
		Finalized:   st.Finalized,
		Mode:        st.Mode,
		Reports:     st.Reports,
		Epoch:       c.members.epoch,
		Members:     c.members.snapshot(st.Round).Members,
		Failovers:   c.failovers,
		Shards:      append([]ShardInfo(nil), c.shards...),
		Metrics:     st.Metrics,
	}
}

// Handler returns the coordinator's HTTP surface: the merged round's plan,
// query, rounds and health endpoints, answered by its server exactly as a
// single node answers them (so analysts are oblivious to the topology), plus
// cluster-wide finalize, round transition, membership
// (register/heartbeat/snapshot) and status. The server's ingest and shard
// endpoints are not mounted: the merged round takes shard states only.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	round := c.srv.Handler()
	for _, pattern := range []string{"GET /v1/plan", "GET /v1/query", "POST /v1/query", "GET /v1/rounds", "GET /v1/healthz"} {
		mux.Handle(pattern, round)
	}
	mux.HandleFunc("POST /v1/shard/register", func(w http.ResponseWriter, r *http.Request) {
		var msg wire.RegisterMessage
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			c.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid register body: %w", err))
			return
		}
		resp, err := c.RegisterShard(msg)
		if err != nil {
			c.writeError(w, http.StatusConflict, err)
			return
		}
		c.writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/shard/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var msg wire.HeartbeatMessage
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			c.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid heartbeat body: %w", err))
			return
		}
		resp, err := c.Heartbeat(msg)
		if err != nil {
			c.writeError(w, http.StatusConflict, err)
			return
		}
		c.writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/membership", func(w http.ResponseWriter, _ *http.Request) {
		c.writeJSON(w, http.StatusOK, c.MembershipSnapshot())
	})
	mux.HandleFunc("POST /v1/finalize", func(w http.ResponseWriter, r *http.Request) {
		n, err := c.FinalizeRound(r.Context())
		if err != nil {
			c.writeError(w, http.StatusBadGateway, err)
			return
		}
		c.writeJSON(w, http.StatusOK, map[string]int{"reports": n})
	})
	mux.HandleFunc("POST /v1/nextround", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Round int `json:"round"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			c.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid nextround body: %w", err))
			return
		}
		round, err := c.AdvanceRound(r.Context(), req.Round)
		if err != nil {
			c.writeError(w, http.StatusConflict, err)
			return
		}
		c.writeJSON(w, http.StatusOK, map[string]int{"round": round})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		c.writeJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		c.logf("cluster: encoding %T response: %v", v, err)
	}
}

func (c *Coordinator) writeError(w http.ResponseWriter, status int, err error) {
	c.writeJSON(w, status, map[string]string{"error": err.Error()})
}
