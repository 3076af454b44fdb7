package httpapi

import (
	"context"
	"fmt"
	"net/http"

	"felip/internal/wire"
)

// handleShardState serves POST /v1/shard/state — a shard server's finalize.
// The first call seals the round and exports its partial-aggregate state:
// the raw integer count vectors per grid, *before* estimation, which is what
// makes shard states losslessly mergeable at the coordinator. The message is
// cached, and every repeat call (a lost response, a coordinator restarted
// mid-merge) answers the identical bytes. A shard that crashed after sealing
// replays its WAL (or restores the round from its archive) and re-exports
// the same counts and rejected count: the message differs only in
// WALReplayed, which is excluded from the checksum.
func (s *Server) handleShardState(w http.ResponseWriter, _ *http.Request) {
	msg, status, err := s.pullState()
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, msg)
}

// pullState pulls the current round's state and keeps that round across the
// export, so a pull finishing after an advance answers its own round's
// message and writes nothing into the next.
func (s *Server) pullState() (wire.ShardStateMessage, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.cur
	switch {
	case r.state != nil:
		return *r.state, http.StatusOK, nil
	case r.closed:
		return wire.ShardStateMessage{}, http.StatusServiceUnavailable, errShuttingDown
	case r.origin == originRestored && r.col.N() == 0:
		// An archived round always holds reports, so a restored round whose
		// collector is empty came from a snapshot without partial states:
		// exporting it would drop the round's reports out of the merge.
		return wire.ShardStateMessage{}, http.StatusConflict, fmt.Errorf("round %d was restored from an archive snapshot without partial states; its counts cannot be exported", r.num)
	}
	// Seal under s.mu, which report handlers hold from Check to Add: no
	// report can land in the WAL after the seal yet miss the export.
	r.col.Seal()
	s.mu.Unlock()
	if hook := testHookShardExport; hook != nil {
		hook()
	}
	// The export folds any pending OLH batches — outside s.mu so status and
	// health stay live while the round closes.
	states, err := r.col.ExportPartials()
	s.mu.Lock()
	if err != nil {
		return wire.ShardStateMessage{}, http.StatusInternalServerError, err
	}
	// A finalize that started meanwhile logs the round's record itself.
	s.awaitSettledLocked(r)
	if r.state == nil {
		// The seal's record lets a crashed shard that already advanced rounds
		// replay this round as closed — an empty round too, whose record of 0
		// reports lets a replay chain cross an idle round (attachLocked). It
		// carries the rejected count, which replay restores, so a re-pull
		// answers the same message. A round past open has its record already.
		if r.phase == phaseOpen {
			if err := s.transitionLocked(r, phaseSealed); err != nil {
				s.logf("httpapi: sealing round %d: %v", r.num, err)
				return wire.ShardStateMessage{}, http.StatusInternalServerError, fmt.Errorf("report log unavailable")
			}
		}
		msg := wire.NewShardStateMessage(s.shardID, r.num, s.opts.Epsilon, r.col.Mode(),
			r.col.Longitudinal(), r.rejected(), s.walReplayed, states)
		r.state = &msg
	}
	return *r.state, http.StatusOK, nil
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
