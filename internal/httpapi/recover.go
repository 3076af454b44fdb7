package httpapi

import (
	"fmt"

	"felip/internal/reportlog"
	"felip/internal/serve"
)

// Recover brings a fresh server up from its durable files and leaves it
// ready for traffic. segs names the server's WAL segment chain (nil for a
// server that keeps no WAL); joinRound is the round a server with no history
// opens: 1, or the round a cluster registration names.
//
// With an archive attached (UseArchive) that holds rounds, the newest
// archived round is restored (restoreArchivedLocked) and only the segments
// after it are replayed; otherwise the chain is replayed from its first
// segment, and with no segment at all the server opens round joinRound. A
// gap in the chain is an error that names the missing segment. Every round
// the replay re-finalizes is archived, and only then are segments deleted,
// by the one rule the live close also follows (reclaimSegments). A segment
// at or below the restored round whose round the archive lacks is kept and
// logged, never replayed over the snapshot.
//
// Recover also installs the opener AdvanceRound uses for the next segment,
// which refuses a segment that already holds records, and names the chain
// for GET /v1/replica/wal. The served engine is warm when Recover returns.
func (s *Server) Recover(segs *reportlog.Segments, joinRound int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if joinRound < 1 {
		return fmt.Errorf("httpapi: join round %d out of range (rounds are 1-based)", joinRound)
	}
	if r := s.cur; r.num != 1 || r.phase != phaseOpen || r.closed || r.col.N() > 0 || s.durable {
		return fmt.Errorf("httpapi: cannot recover into a server already in use (round %d)", r.num)
	}
	if s.store != nil {
		if latest := s.store.LatestRound(); latest > 0 {
			if err := s.restoreArchivedLocked(latest); err != nil {
				return fmt.Errorf("httpapi: restoring archived round %d: %w", latest, err)
			}
			s.logf("httpapi: restored round %d from archive %s", latest, s.store.Dir())
		}
	}
	restored := s.cur.origin == originRestored
	if segs == nil {
		if !restored {
			s.cur.num = joinRound
		}
		return s.warmServed()
	}
	s.segments = segs

	rounds, err := segs.Existing()
	if err != nil {
		return err
	}
	var chain []int
	for _, r := range rounds {
		if !restored || r > s.cur.num {
			chain = append(chain, r)
		} else if _, _, archived := s.store.Info(r); !archived {
			s.logf("httpapi: keeping wal segment %s: round %d is not archived, and it is not replayed over the round %d snapshot",
				segs.Path(r), r, s.cur.num)
		}
	}
	if len(chain) == 0 && !restored {
		chain = []int{joinRound}
	}
	// The server is not durable yet, so opening a round attaches no segment:
	// each is opened here with its records and replayed into its round.
	for i, num := range chain {
		prev := s.cur
		if i == 0 && !restored {
			prev.num = num
		} else if num != prev.num+1 {
			return fmt.Errorf("httpapi: wal segment chain has a gap: round %d's segment %s is missing", prev.num+1, segs.Path(prev.num+1))
		} else if err := s.openNextLocked(); err != nil {
			return fmt.Errorf("httpapi: replaying %s: %w", segs.Path(num), err)
		}
		if prev.wal != nil { // the previous chain round's segment
			if err := prev.wal.Close(); err != nil {
				s.logf("httpapi: closing round %d log: %v", prev.num, err)
			}
		}
		r := s.cur
		l, recs, err := segs.Open(num)
		if err != nil {
			return err
		}
		if err := s.attachLocked(r, l, recs); err != nil {
			l.Close()
			return fmt.Errorf("httpapi: replaying %s: %w", segs.Path(num), err)
		}
		if r.origin == originReplayed {
			s.logf("httpapi: round %d: replayed %d WAL records from %s", num, len(recs), segs.Path(num))
		} else {
			s.logf("httpapi: round %d: opened fresh WAL segment %s", num, segs.Path(num))
		}
		if r.phase == phaseFinalized && s.store != nil {
			// Re-finalized by the replay, so newer than every archived round.
			s.archiveRound(r, r.rejected())
		}
	}
	s.durable = true
	s.walFactory = func(round int) (*reportlog.Log, error) {
		l, recs, err := segs.Open(round)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			l.Close()
			return nil, fmt.Errorf("segment %s already has %d records; refusing to reuse it for a new round", segs.Path(round), len(recs))
		}
		return l, nil
	}
	s.reclaimSegments()
	return s.warmServed()
}

// restoreArchivedLocked serves an archived round from one read of its
// snapshot: the engine (left cold; Recover warms the served engine last),
// the rejected count, and the exact partial counts, imported into the fresh
// round's collector and sealed so a state pull re-exports them. A snapshot
// without partial states leaves the collector empty, and the state pull
// refuses to export it. Callers hold s.mu.
func (s *Server) restoreArchivedLocked(num int) error {
	snap, err := s.store.Load(num)
	if err != nil {
		return err
	}
	eng, err := serve.FromSnapshot(snap.Aggregate)
	if err != nil {
		return err
	}
	r := s.cur
	if len(snap.Partials) > 0 {
		if err := r.importStates(snap.Partials); err != nil {
			return err
		}
		r.col.Seal()
	}
	r.restoreRejected(snap.Rejected)
	r.num, r.origin = num, originRestored
	return s.serveLocked(r, eng)
}

// reclaimSegments deletes every WAL segment whose own round the archive
// holds: that round's snapshot is durable, so its segment is redundant. It
// is the only place segments are deleted; the live close and Recover both
// call it. A segment whose round the archive lacks (its snapshot failed, or
// it predates the archive) stays on disk.
func (s *Server) reclaimSegments() {
	if s.store == nil || s.segments == nil {
		return
	}
	removed, err := s.segments.RemoveIf(func(round int) bool {
		_, _, archived := s.store.Info(round)
		return archived
	})
	if err != nil {
		s.logf("httpapi: deleting archived rounds' wal segments: %v", err)
	}
	if len(removed) > 0 {
		s.logf("httpapi: deleted wal segments %v; the archive holds their rounds", removed)
	}
}
