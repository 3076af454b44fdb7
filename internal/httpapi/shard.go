package httpapi

import (
	"context"
	"fmt"
	"net/http"

	"felip/internal/reportlog"
	"felip/internal/wire"
)

// handleShardState serves POST /v1/shard/state — a shard server's finalize.
// The first call seals the round (the collector refuses reports from here on)
// and exports the round's partial-aggregate state: the raw integer count
// vectors per grid, *before* estimation, which is what makes shard states
// losslessly mergeable at the coordinator. The message is cached and every
// repeat call — a coordinator retrying a lost response, or a coordinator that
// restarted mid-merge — answers the identical bytes, so the pull is safe to
// repeat any number of times.
//
// A shard that crashed after sealing replays its WAL and, on the next pull,
// re-exports the same report set into the same counts: the message differs
// only in WALReplayed, which is excluded from the checksum.
func (s *Server) handleShardState(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	if s.shardState != nil {
		msg := *s.shardState
		s.mu.Unlock()
		s.writeJSON(w, http.StatusOK, msg)
		return
	}
	if s.closed {
		s.mu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
		return
	}
	// An archived round always holds reports, so a restored round whose
	// collector is empty came from a snapshot without partial states:
	// exporting it would drop the round's reports out of the merge.
	if s.restored && s.col.N() == 0 {
		s.mu.Unlock()
		s.writeError(w, http.StatusConflict, fmt.Errorf("round %d was restored from an archive snapshot without partial states; its counts cannot be exported", s.round))
		return
	}
	col := s.col
	// Seal under s.mu: report handlers hold s.mu across Check → WAL append →
	// Add, so no report can land in the WAL after the seal yet miss the
	// export.
	col.Seal()
	s.mu.Unlock()

	// The export folds any pending OLH batches — outside s.mu so status and
	// health stay live while the round closes.
	states, err := col.ExportPartials()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}

	s.mu.Lock()
	if s.shardState == nil {
		// Persist the seal so a crashed shard that already advanced rounds can
		// replay this round as closed — including an empty round, whose
		// FinalizeRecord(0) is what lets a replay chain cross an idle round
		// (replay seals the collector instead of estimating; see replayLocked).
		// s.agg != nil means the round already finalized and s.sealedEmpty
		// means the empty seal was already replayed — either way the record is
		// in the log.
		if s.wal != nil && s.agg == nil && !s.sealedEmpty {
			err := s.wal.Append(reportlog.FinalizeRecord(col.N()))
			if err == nil {
				err = s.wal.Sync()
			}
			if err != nil {
				s.mu.Unlock()
				s.logf("httpapi: wal seal append: %v", err)
				s.writeError(w, http.StatusInternalServerError, fmt.Errorf("report log unavailable"))
				return
			}
		}
		msg := wire.NewShardStateMessage(s.shardID, s.round, s.opts.Epsilon, col.Mode(),
			col.Longitudinal(), s.wireRejected+col.Rejected(), s.walReplayed, states)
		s.shardState = &msg
	}
	msg := *s.shardState
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, msg)
}

// ShardState pulls a shard's sealed partial-aggregate state; the first call
// seals the shard's round. The client retries per its policy — the endpoint
// is idempotent — and verifies the message's version and checksum before
// returning it.
func (c *Client) ShardState(ctx context.Context) (wire.ShardStateMessage, error) {
	var msg wire.ShardStateMessage
	if _, err := c.post(ctx, "/v1/shard/state", nil, &msg); err != nil {
		return wire.ShardStateMessage{}, err
	}
	if err := msg.Verify(); err != nil {
		return wire.ShardStateMessage{}, err
	}
	return msg, nil
}

// NextRoundTo drives the idempotent round transition: it asks the server to
// open the given round, succeeding without side effects when the server is
// already there. Coordinators use it so a retried transition never burns a
// round on a shard whose acknowledgment was lost.
func (c *Client) NextRoundTo(ctx context.Context, target int) (int, error) {
	var out struct {
		Round int `json:"round"`
	}
	_, err := c.post(ctx, "/v1/nextround", map[string]int{"round": target}, &out)
	return out.Round, err
}
