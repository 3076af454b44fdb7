package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"felip/internal/core"
	"felip/internal/domain"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// FollowerConfig describes one logical shard's replication target.
type FollowerConfig struct {
	// Schema, N and Opts must match the cluster's plan flags: the promoted
	// server rebuilds the identical plan from them.
	Schema *domain.Schema
	N      int
	Opts   core.Options
	// Name is the logical shard this node replicates — and the identity it
	// assumes on promotion, so routing, dedup keys, and the shard-state
	// checksum all survive the failover.
	Name string
	// Base is this node's own public base URL (what it registers and
	// heartbeats with, and what the coordinator routes to after promotion).
	Base string
	// Primary is the current primary's base URL; Coordinator the
	// coordinator's.
	Primary     string
	Coordinator string
	// WALPath is the base path of the local segment chain the shipped bytes
	// land in — the same layout a primary's -wal flag produces, which is what
	// makes takeover a plain restart-replay.
	WALPath string
	// HTTPClient and Retry configure the sync and heartbeat calls.
	HTTPClient *http.Client
	Retry      httpapi.RetryPolicy
	Logf       func(format string, args ...any)
}

// Follower replicates one primary's write-ahead log segment by segment and
// can take the primary's place: Register announces it to the coordinator,
// SyncOnce pulls and verifies the next chunk, Heartbeat reports its
// replication positions, and Promote — driven by the coordinator when the
// primary's heartbeat lapses — strictly re-verifies the local segment chain,
// replays it into a fresh shard server under the primary's logical identity,
// and starts serving. Because the shipped bytes are the primary's WAL bytes,
// the promoted shard's sealed partial state is bit-identical to what the
// lost primary would have exported.
type Follower struct {
	cfg     FollowerConfig
	logf    func(format string, args ...any)
	primary *httpapi.Client
	coord   *httpapi.Client
	segs    *reportlog.Segments

	mu sync.Mutex
	// round and off are the shipping cursor: the segment being replicated and
	// how many of its bytes are local.
	round int
	off   int64
	// primaryRound and primaryPos are the primary-side positions observed on
	// the last successful sync.
	primaryRound int
	primaryPos   int64
	// promoted is the shard server this node runs after takeover; promotion
	// is one-way.
	promoted *httpapi.Server
	handler  http.Handler
	resp     wire.PromoteResponse
}

// NewFollower builds a follower and resumes its shipping cursor from whatever
// segments a previous run left on disk.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Name == "" || cfg.Base == "" || cfg.Primary == "" || cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: follower needs Name, Base, Primary and Coordinator")
	}
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("cluster: follower needs a local WAL path to ship segments into")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	f := &Follower{
		cfg:     cfg,
		logf:    logf,
		primary: httpapi.DialRetrying(cfg.Primary, cfg.HTTPClient, cfg.Retry),
		coord:   httpapi.DialRetrying(cfg.Coordinator, cfg.HTTPClient, cfg.Retry),
		segs:    reportlog.NewSegments(cfg.WALPath),
		round:   1,
	}
	rounds, err := f.segs.Existing()
	if err != nil {
		return nil, err
	}
	if len(rounds) > 0 {
		last := rounds[len(rounds)-1]
		st, err := os.Stat(f.segs.Path(last))
		if err != nil {
			return nil, err
		}
		f.round, f.off = last, st.Size()
	}
	return f, nil
}

// Register announces the follower to the coordinator's membership; the
// response's JoinRound is the primary's first round, which seeds the shipping
// cursor when no local segments exist yet.
func (f *Follower) Register(ctx context.Context) error {
	resp, err := f.coord.RegisterShard(ctx, wire.RegisterMessage{
		Name:    f.cfg.Name,
		Base:    f.cfg.Base,
		Role:    wire.RoleFollower,
		Follows: f.cfg.Name,
	})
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.off == 0 && f.round < resp.JoinRound {
		f.round = resp.JoinRound
	}
	f.mu.Unlock()
	return nil
}

// SyncOnce pulls one replication chunk from the primary, verifies it, appends
// it to the local segment, and — when the primary has sealed the segment and
// every byte is local — strictly re-verifies the whole local file before
// advancing to the next round's segment. Returns whether the follower is
// fully caught up (no segment lag, no byte lag).
func (f *Follower) SyncOnce(ctx context.Context) (caughtUp bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted != nil {
		return true, nil
	}
	chunk, err := f.primary.ReplicaWAL(ctx, f.round, f.off)
	if err != nil {
		return false, err
	}
	if chunk.Truncated {
		// The primary archived this round and truncated its segment: the bytes
		// this follower still needs are gone. Skipping ahead would leave a hole
		// in the local chain and a later promotion would serve a history with
		// reports silently missing — refuse, loudly, until an operator
		// re-seeds the follower (or replaces it) from the archive snapshot.
		return false, fmt.Errorf("cluster: follower %q: primary archived round %d and truncated its segment; cannot replicate an already-archived round — re-seed this follower from the archive",
			f.cfg.Name, f.round)
	}
	if len(chunk.Data) > 0 {
		file, err := os.OpenFile(f.segs.Path(f.round), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return false, err
		}
		_, werr := file.Write(chunk.Data)
		if werr == nil {
			werr = file.Sync()
		}
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return false, fmt.Errorf("cluster: appending shipped bytes to %s: %w", f.segs.Path(f.round), werr)
		}
		f.off = chunk.Pos
	}
	f.primaryRound = chunk.CurrentRound
	if chunk.Round == chunk.CurrentRound {
		f.primaryPos = chunk.Pos
	} else {
		f.primaryPos = 0
	}
	if chunk.Sealed && f.off == chunk.Pos && chunk.CurrentRound > f.round {
		// Segment complete: re-verify the local bytes end to end before moving
		// the cursor — the CRC chain must hold on *our* disk, not just on the
		// wire, because promotion replays from disk.
		if f.off > 0 {
			raw, err := os.ReadFile(f.segs.Path(f.round))
			if err != nil {
				return false, err
			}
			if _, err := reportlog.VerifySegment(raw); err != nil {
				return false, fmt.Errorf("cluster: shipped segment %s failed verification: %w", f.segs.Path(f.round), err)
			}
		}
		f.logf("cluster: follower %q completed segment for round %d (%d bytes)", f.cfg.Name, f.round, f.off)
		f.round++
		f.off = 0
		return false, nil
	}
	return f.round == chunk.CurrentRound && f.off == chunk.Pos, nil
}

// Lag reports the follower's replication lag: whole segments behind the
// primary, plus bytes behind within the segment when caught up on rounds.
func (f *Follower) Lag() (segments int, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return lagOf(&follower{
		round: f.round, pos: f.off,
		primaryRound: f.primaryRound, primaryPos: f.primaryPos,
	})
}

// Heartbeat reports liveness and replication positions to the coordinator.
// After promotion it beats as the shard's primary instead.
func (f *Follower) Heartbeat(ctx context.Context) error {
	f.mu.Lock()
	msg := wire.HeartbeatMessage{
		Name:         f.cfg.Name,
		Base:         f.cfg.Base,
		Role:         wire.RoleFollower,
		Round:        f.round,
		WALPos:       f.off,
		PrimaryRound: f.primaryRound,
		PrimaryPos:   f.primaryPos,
	}
	if srv := f.promoted; srv != nil {
		msg.Role = wire.RolePrimary
		msg.Round = srv.Round()
		msg.PrimaryRound, msg.PrimaryPos = 0, 0
	}
	f.mu.Unlock()
	_, err := f.coord.ShardHeartbeat(ctx, msg)
	return err
}

// Promote performs the takeover: every local segment is strictly verified
// (any tear or corruption refuses the promotion — the coordinator keeps the
// shard dead rather than serve a state that is not bit-identical), then a
// fresh shard server recovers from the chain exactly the way a restarted
// primary does (httpapi.Server.Recover). The server assumes the primary's
// logical shard identity and keeps appending to the same local segment
// chain, so it *is* the shard from here on. Idempotent: a second call
// returns the first takeover's response.
func (f *Follower) Promote(targetRound int) (wire.PromoteResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted != nil {
		return f.resp, nil
	}

	rounds, err := f.segs.Existing()
	if err != nil {
		return wire.PromoteResponse{}, err
	}
	replayed := 0
	for _, round := range rounds {
		raw, err := os.ReadFile(f.segs.Path(round))
		if err != nil {
			return wire.PromoteResponse{}, err
		}
		recs, err := reportlog.VerifySegment(raw)
		if err != nil {
			return wire.PromoteResponse{}, fmt.Errorf("cluster: refusing promotion: segment %s failed verification: %w",
				f.segs.Path(round), err)
		}
		replayed += len(recs)
	}

	srv, err := httpapi.NewServer(f.cfg.Schema, f.cfg.N, f.cfg.Opts)
	if err != nil {
		return wire.PromoteResponse{}, err
	}
	srv.SetLogger(f.logf)
	srv.SetShardID(f.cfg.Name)
	// With nothing shipped (the primary died before its first report), the
	// server opens the cursor round as a fresh durable shard.
	if err := srv.Recover(f.segs, f.round); err != nil {
		return wire.PromoteResponse{}, fmt.Errorf("cluster: refusing promotion: %w", err)
	}
	if targetRound != 0 && srv.Round() != targetRound {
		return wire.PromoteResponse{}, fmt.Errorf("cluster: refusing promotion: replayed chain ends in round %d, cluster is in round %d",
			srv.Round(), targetRound)
	}

	f.promoted = srv
	f.handler = srv.Handler()
	f.resp = wire.PromoteResponse{
		Name:     f.cfg.Name,
		Round:    srv.Round(),
		Reports:  srv.WALReplayed(),
		Replayed: replayed,
	}
	f.logf("cluster: follower %q promoted: serving round %d after replaying %d records", f.cfg.Name, f.resp.Round, replayed)
	return f.resp, nil
}

// Handler is the follower's HTTP surface: the promotion endpoint, plus —
// once promoted — the full shard API delegated to the promoted server.
// Before promotion every shard route answers 503, so a client that routes to
// the follower too early retries rather than silently missing the shard.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replica/promote", func(w http.ResponseWriter, r *http.Request) {
		var req wire.PromoteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFollowerJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid promote body: %v", err)})
			return
		}
		resp, err := f.Promote(req.Round)
		if err != nil {
			writeFollowerJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		writeFollowerJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeFollowerJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		h := f.handler
		f.mu.Unlock()
		if h == nil {
			writeFollowerJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": fmt.Sprintf("follower for %q is not promoted; reports go to the primary", f.cfg.Name)})
			return
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

// Run drives the follower's loops until the context is cancelled: sync pulls
// at the sync interval, heartbeats at the heartbeat interval. Errors are
// logged and retried on the next tick — a follower outliving a dead primary
// is exactly the scenario it exists for.
func (f *Follower) Run(ctx context.Context, syncEvery, beatEvery time.Duration) {
	if syncEvery <= 0 {
		syncEvery = 200 * time.Millisecond
	}
	if beatEvery <= 0 {
		beatEvery = time.Second
	}
	go func() {
		t := time.NewTicker(syncEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := f.SyncOnce(ctx); err != nil && ctx.Err() == nil {
					f.logf("cluster: follower %q sync: %v", f.cfg.Name, err)
				}
			}
		}
	}()
	go func() {
		t := time.NewTicker(beatEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := f.Heartbeat(ctx); err != nil && ctx.Err() == nil {
					f.logf("cluster: follower %q heartbeat: %v", f.cfg.Name, err)
				}
			}
		}
	}()
}

func writeFollowerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
