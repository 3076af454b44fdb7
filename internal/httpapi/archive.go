package httpapi

import (
	"fmt"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// PlanFingerprint returns the fingerprint of the server's published plan —
// the value archive snapshots are stamped with so a restore can refuse a
// drifted configuration.
func (s *Server) PlanFingerprint() uint32 { return s.plan.Fingerprint() }

// UseArchive attaches a snapshot store: every finalized round is archived
// durably (temp file + fsync + rename) and served historically through the
// query plane's round targeting. segments, when non-nil, names the server's
// WAL segment chain (Recover names it too); a segment is deleted once the
// archive holds its own round, so the log stops growing without bound.
func (s *Server) UseArchive(store *archive.Store, segments *reportlog.Segments) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return fmt.Errorf("httpapi: archive already attached")
	}
	s.store = store
	s.segments = segments
	s.history.Store(store)
	return nil
}

// archiveRound persists one finalized round with its rejected count and the
// collector's exact pre-estimation integer counts. Failures are logged, not
// returned: the round's WAL segment still holds it, and reclaimSegments
// keeps a segment whose round the archive lacks, so finalize must not fail
// because the archive did.
func (s *Server) archiveRound(col *core.Collector, agg *core.Aggregator, round, rejected int) {
	snap := archive.RoundSnapshot{
		Round:           round,
		PlanFingerprint: s.plan.Fingerprint(),
		Reports:         agg.N(),
		Rejected:        rejected,
		Aggregate:       agg.Snapshot(),
	}
	if parts, err := col.ExportPartials(); err != nil {
		s.logf("httpapi: exporting round %d partial states for archive: %v", round, err)
	} else {
		snap.Partials = wire.GridStates(parts)
	}
	if err := s.store.WriteRound(snap); err != nil {
		s.logf("httpapi: archiving round %d: %v", round, err)
	}
}
