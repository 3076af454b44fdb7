package httpapi

import (
	"fmt"

	"felip/internal/reportlog"
)

// Recover brings a fresh server up from its durable files and leaves it
// ready for traffic. segs names the server's WAL segment chain (nil for a
// server that keeps no WAL); joinRound is the round a server with no history
// opens: 1, or the round a cluster registration names.
//
// With an archive attached (UseArchive) that holds rounds, the newest
// archived round is served through the archive's engine, its collector
// holds the snapshot's partial counts, sealed, for a repeated state pull,
// and only the segments after it are replayed. Otherwise the chain is
// replayed from its first segment, and with no segment at all the server
// opens round joinRound. The replayed chain must be contiguous: a missing
// segment is an error that names it. Every round the replay re-finalizes is archived, and
// only then are segments deleted, by the one rule the live close also
// follows (reclaimSegments). A segment at or below the restored round whose
// round the archive lacks is kept and logged; it is never replayed over the
// snapshot.
//
// Recover also installs the opener NextRound uses for the next segment,
// which refuses a segment that already holds records, and names the chain
// for GET /v1/replica/wal. The served engine is warm when Recover returns.
func (s *Server) Recover(segs *reportlog.Segments, joinRound int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if joinRound < 1 {
		return fmt.Errorf("httpapi: join round %d out of range (rounds are 1-based)", joinRound)
	}
	if s.round != 1 || s.col.N() > 0 || s.agg != nil || s.wal != nil || s.durable || s.closed ||
		s.shardState != nil || s.sealedEmpty || s.dedup.len() > 0 {
		return fmt.Errorf("httpapi: cannot recover into a server already in use (round %d)", s.round)
	}
	if s.store != nil {
		if latest := s.store.LatestRound(); latest > 0 {
			eng, err := s.store.Engine(latest)
			if err == nil {
				err = s.importArchivedLocked(latest)
			}
			if err != nil {
				return fmt.Errorf("httpapi: restoring archived round %d: %w", latest, err)
			}
			s.round, s.agg, s.finalN, s.restored = latest, eng.Aggregator(), eng.Aggregator().N(), true
			s.qp.Serve(eng, latest)
			s.logf("httpapi: restored round %d from archive %s", latest, s.store.Dir())
		}
	}
	if segs == nil {
		if !s.restored {
			s.round = joinRound
		}
		return nil
	}
	s.segments = segs
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

	rounds, err := segs.Existing()
	if err != nil {
		return err
	}
	var chain []int
	for _, r := range rounds {
		if !s.restored || r > s.round {
			chain = append(chain, r)
		} else if _, _, archived := s.store.Info(r); !archived {
			s.logf("httpapi: keeping wal segment %s: round %d is not archived, and it is not replayed over the round %d snapshot",
				segs.Path(r), r, s.round)
		}
	}
	if len(chain) == 0 && !s.restored {
		chain = []int{joinRound}
	}
	for i, r := range chain {
		if i == 0 && !s.restored {
			s.round = r
		} else {
			if r != s.round+1 {
				return fmt.Errorf("httpapi: wal segment chain has a gap: round %d's segment %s is missing", s.round+1, segs.Path(s.round+1))
			}
			if s.agg == nil && !s.sealedEmpty {
				return fmt.Errorf("httpapi: round %d has a segment but round %d never finalized", r, s.round)
			}
			if err := s.openRoundLocked(); err != nil {
				return err
			}
		}
		l, recs, err := segs.Open(r)
		if err != nil {
			return err
		}
		if err := s.replayLocked(recs); err != nil {
			l.Close()
			return fmt.Errorf("httpapi: replaying %s: %w", segs.Path(r), err)
		}
		s.col.ResumeAssignment(s.col.N())
		if s.wal != nil {
			if err := s.wal.Close(); err != nil {
				s.logf("httpapi: closing round %d log: %v", r-1, err)
			}
		}
		s.wal, s.restored = l, false
		if len(recs) == 0 {
			s.logf("httpapi: round %d: opened fresh WAL segment %s", r, segs.Path(r))
		} else {
			s.logf("httpapi: round %d: replayed %d WAL records from %s", r, len(recs), segs.Path(r))
		}
		if s.agg != nil && s.store != nil {
			// Re-finalized by the replay, so newer than every archived round.
			s.archiveRound(s.col, s.agg, r)
		}
	}
	s.reclaimSegments()
	return s.qp.Warmup()
}

// importArchivedLocked loads an archived round's exact partial counts into
// the server's collector and seals it, so a state pull on the restored round
// re-exports the counts the round was closed with. A snapshot without partial
// states leaves the collector empty, and handleShardState refuses to export
// it. Callers hold s.mu.
func (s *Server) importArchivedLocked(round int) error {
	snap, err := s.store.Load(round)
	if err != nil {
		return err
	}
	states, err := snap.PartialStates(s.col.ReportEpsilon())
	if err != nil || states == nil {
		return err
	}
	if err := s.col.ImportPartials(states); err != nil {
		return err
	}
	s.col.Seal()
	return nil
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
