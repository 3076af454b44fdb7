package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"felip/internal/wire"
)

// This file is the replication surface a shard server exposes to its
// follower, plus the client verbs the elastic-cluster membership protocol
// rides on (register, heartbeat, membership, promote). The server side of
// register/heartbeat/promote lives with their owners — the coordinator
// (internal/cluster) and the follower — but every HTTP verb is defined here
// so the wire contract has one home.

// Round reports the collection round the server is in (1-based).
func (s *Server) Round() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.round
}

// WALReplayed reports how many report records the server replayed from its
// write-ahead log since startup (finalize markers are not reports).
func (s *Server) WALReplayed() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walReplayed
}

// WALPos reports the current round's write-ahead-log end offset (0 when the
// server is not durable) — what a primary's heartbeat carries so the
// coordinator can compute its follower's replication lag.
func (s *Server) WALPos() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.Pos()
}

// handleReplicaWAL serves GET /v1/replica/wal?round=R&from=F — one chunk of
// the server's write-ahead log for a follower to replicate. The current
// round's bytes come from the live log under its lock; earlier rounds from
// the sealed segment files. Bytes are served exactly as Append framed them
// and checksummed end to end, so the follower's copy is bit-identical.
func (s *Server) handleReplicaWAL(w http.ResponseWriter, r *http.Request) {
	round, err := strconv.Atoi(r.URL.Query().Get("round"))
	if err != nil || round < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("replica wal: invalid round %q", r.URL.Query().Get("round")))
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil || from < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("replica wal: invalid offset %q", v))
			return
		}
	}

	s.mu.RLock()
	cur, wal, segs, id, store := s.round, s.wal, s.segments, s.shardID, s.store
	s.mu.RUnlock()

	switch {
	case round > cur:
		s.writeError(w, http.StatusConflict, fmt.Errorf("replica wal: round %d not open (server in round %d)", round, cur))
	case round == cur:
		if wal == nil {
			s.writeError(w, http.StatusConflict, fmt.Errorf("replica wal: server is not durable; replication requires a write-ahead log"))
			return
		}
		data, pos, err := wal.ReadFrom(from)
		if err != nil {
			s.writeError(w, http.StatusConflict, err)
			return
		}
		s.writeJSON(w, http.StatusOK, wire.NewSegmentChunk(id, round, from, data, pos, false, cur))
	default:
		if segs == nil {
			s.writeError(w, http.StatusConflict, fmt.Errorf("replica wal: no segment chain attached (Recover)"))
			return
		}
		raw, err := os.ReadFile(segs.Path(round))
		if os.IsNotExist(err) {
			// No segment file. Two very different histories end here: the round
			// was archived and its segment truncated (the reports existed — a
			// follower must not verify a chain that skips them), or the round
			// genuinely never wrote a segment. The archive listing tells them
			// apart; conflating the two was how a follower could promote with a
			// hole in its history.
			if store != nil {
				if _, _, archived := store.Info(round); archived {
					s.writeJSON(w, http.StatusOK, wire.NewTruncatedSegmentChunk(id, round, from, cur))
					return
				}
			}
			raw, err = nil, nil
		}
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		pos := int64(len(raw))
		if from > pos {
			s.writeError(w, http.StatusConflict, fmt.Errorf("replica wal: offset %d beyond sealed segment end %d", from, pos))
			return
		}
		s.writeJSON(w, http.StatusOK, wire.NewSegmentChunk(id, round, from, raw[from:], pos, true, cur))
	}
}

// ReplicaWAL pulls one replication chunk from a primary and verifies its
// checksum before returning it.
func (c *Client) ReplicaWAL(ctx context.Context, round int, from int64) (wire.SegmentChunk, error) {
	var chunk wire.SegmentChunk
	err := c.get(ctx, fmt.Sprintf("/v1/replica/wal?round=%d&from=%d", round, from), &chunk)
	if err != nil {
		return wire.SegmentChunk{}, err
	}
	if err := chunk.Verify(); err != nil {
		return wire.SegmentChunk{}, err
	}
	if chunk.Round != round || chunk.From != from {
		return wire.SegmentChunk{}, fmt.Errorf("httpapi: asked for round %d offset %d, got round %d offset %d",
			round, from, chunk.Round, chunk.From)
	}
	return chunk, nil
}

// RegisterShard announces a node to the coordinator's membership.
func (c *Client) RegisterShard(ctx context.Context, msg wire.RegisterMessage) (wire.RegisterResponse, error) {
	var out wire.RegisterResponse
	_, err := c.post(ctx, "/v1/shard/register", msg, &out)
	return out, err
}

// ShardHeartbeat reports a node's liveness (and replication positions) to the
// coordinator.
func (c *Client) ShardHeartbeat(ctx context.Context, msg wire.HeartbeatMessage) (wire.HeartbeatResponse, error) {
	var out wire.HeartbeatResponse
	_, err := c.post(ctx, "/v1/shard/heartbeat", msg, &out)
	return out, err
}

// Membership fetches the coordinator's routable membership snapshot.
func (c *Client) Membership(ctx context.Context) (wire.MembershipMessage, error) {
	var out wire.MembershipMessage
	err := c.get(ctx, "/v1/membership", &out)
	return out, err
}

// PromoteReplica asks a follower to take over its logical shard for the
// given round. The coordinator calls it when the primary's heartbeat lapses;
// it is idempotent, so a promotion whose acknowledgment was lost can simply
// be retried.
func (c *Client) PromoteReplica(ctx context.Context, round int) (wire.PromoteResponse, error) {
	var out wire.PromoteResponse
	_, err := c.post(ctx, "/v1/replica/promote", wire.PromoteRequest{Round: round}, &out)
	return out, err
}
