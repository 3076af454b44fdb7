package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// This file is the one admission path every report takes into a round,
// whichever endpoint carried it: POST /v1/report admits a one-record batch,
// POST /v1/reports a decoded frame. FELIP's estimator is unbiased only if
// each report is counted once, in its own group, through the channel the
// round's plan inverts, and that rule is written here once:
//
//  1. checkChannel compares a submission's claimed mode and longitudinal
//     flag with the plan (WAL replay runs it too);
//  2. classifyLocked decides each report's disposition, checking in order:
//     dedup across requests and within the batch, round closed, the plan
//     (Collector.Check), and the attr of a non-FELIP report;
//  3. commitLocked appends the accepted records in one WAL write, then
//     folds and counts them.
//
// The caller decides whether to Sync before acknowledging: a frame is
// fsynced before its 200, a JSON report is acknowledged after its OS write.

// submission is one report presented for admission.
type submission struct {
	// id is the idempotency key as received. On the frame path it aliases
	// the frame buffer; admission copies it into idStr only for a report it
	// accepts.
	id   []byte
	rep  core.Report
	attr int // the claimed grid attribute; -1 when the report carries none
	size int // on-the-wire bytes, charged to wireBytes if the report lands

	// Set by admission.
	disp   int
	reason error  // why a 409 or 400 disposition was given
	idStr  string // the id of an accepted report, for its WAL record
}

// batch is the unit of admission: one request's submissions plus the scratch
// their admission reuses. The server keeps one for frames, touched only under
// s.mu, so a steady frame load allocates nothing per report but the accepted
// ids; the JSON handler admits a one-record batch of its own.
type batch struct {
	reader wire.FrameReader
	subs   []submission
	// seen maps an id accepted earlier in this batch to its index in subs,
	// so within-batch duplicates get the same answer as cross-request ones.
	// A one-record batch leaves it nil.
	seen map[string]int
	recs []reportlog.Record
}

// checkChannel is the one comparison of a report's claimed channel with the
// round's plan. Mixing channels would corrupt the estimates: a foreign-mode
// report was perturbed under another budget, and a one-shot report went
// through a different randomizer than the two-stage chain a longitudinal
// round inverts (and vice versa).
func (s *Server) checkChannel(mode fo.ReportMode, longitudinal bool) error {
	if mode != s.mode {
		return fmt.Errorf("report claims mode %v; the round's plan runs %v", mode, s.mode)
	}
	if longitudinal != (s.longitudinal != nil) {
		if longitudinal {
			return fmt.Errorf("longitudinal report against the round's one-shot plan")
		}
		return fmt.Errorf("one-shot report against the round's longitudinal plan")
	}
	return nil
}

// checkMessage validates a JSON-shaped report — a POST /v1/report body or a
// WAL record — checks its channel and decodes it. claim is the mode the
// message claimed, which a refusal is charged to.
func (s *Server) checkMessage(msg wire.ReportMessage) (rep core.Report, claim fo.ReportMode, err error) {
	if err := msg.Validate(); err != nil {
		return rep, s.mode, err
	}
	claim, _ = fo.ParseReportMode(msg.Mode) // Validate proved the claim parses
	if err := s.checkChannel(claim, msg.Longitudinal); err != nil {
		return rep, claim, err
	}
	rep, err = msg.Report()
	return rep, claim, err
}

// roundClosedLocked reports whether the round refuses new reports: it is
// finalized, sealed by a state pull or replayed as sealed empty, or a
// finalize is in flight. The last case matters because the collector may not
// have sealed itself yet: a report slipping in after the operator asked to
// close would be silently absent from the published estimates. Caller holds
// s.mu.
func (s *Server) roundClosedLocked() bool {
	return s.agg != nil || s.finalizing != nil || s.shardState != nil || s.sealedEmpty
}

// rejectLocked charges n refused submissions to the rejection counter and to
// the mode they claimed, so the operator sees whose traffic is refused.
// Caller holds s.mu.
func (s *Server) rejectLocked(claim fo.ReportMode, n int) {
	s.wireRejected += n
	s.modeRejected[claim.String()] += n
}

// admitLocked admits a batch whose channel checkChannel has proved: it
// classifies every submission in order, then commits the accepted ones
// together. On success each submission carries its disposition. An error
// refuses the batch whole, with the HTTP status to answer. Caller holds s.mu.
func (s *Server) admitLocked(b *batch) (int, error) {
	if s.closed {
		return http.StatusServiceUnavailable, fmt.Errorf("server shutting down")
	}
	roundClosed := s.roundClosedLocked()
	clear(b.seen)
	for i := range b.subs {
		sub := &b.subs[i]
		sub.disp, sub.reason = s.classifyLocked(b, sub, roundClosed)
		if sub.disp == wire.DispositionAccepted {
			sub.idStr = string(sub.id)
			if b.seen != nil {
				b.seen[sub.idStr] = i
			}
		}
	}
	if err := s.commitLocked(b); err != nil {
		return http.StatusInternalServerError, err
	}
	return http.StatusOK, nil
}

// classifyLocked decides one submission's disposition. Conflicts and attr
// mismatches are charged here; Collector.Check charges the plan failures it
// finds itself. Caller holds s.mu.
func (s *Server) classifyLocked(b *batch, sub *submission, roundClosed bool) (int, error) {
	// A report that does not pack never equals a stored key, which passed
	// Check: a retry of a stored id under such a payload is a conflict.
	key, packed := packKey(sub.rep)
	prev, seen := s.dedup.get(sub.id)
	if !seen {
		var j int
		if j, seen = b.seen[string(sub.id)]; seen {
			prev, _ = packKey(b.subs[j].rep)
		}
	}
	switch {
	case seen && packed && prev == key:
		// An honest retry: already counted.
		return wire.DispositionDuplicate, nil
	case seen:
		s.rejectLocked(s.mode, 1)
		return wire.DispositionConflict, fmt.Errorf("report_id %q reused with a different payload", sub.id)
	case roundClosed:
		return wire.DispositionConflict, core.ErrFinalized
	}
	// Checking against the plan before the WAL append means the log only
	// ever holds reports the collector accepts on replay. A collector that
	// already refuses reports is a round-state conflict, not a bad request.
	if err := s.col.Check(sub.rep); errors.Is(err, core.ErrFinalized) {
		return wire.DispositionConflict, err
	} else if err != nil {
		return wire.DispositionRejected, err
	}
	// Check proved the group in range.
	if want := s.specAttrs[sub.rep.Group]; s.mode != fo.ModeFELIP && sub.attr != want {
		s.rejectLocked(s.mode, 1)
		if sub.attr < 0 {
			return wire.DispositionRejected, fmt.Errorf("%v report missing attr", s.mode)
		}
		return wire.DispositionRejected,
			fmt.Errorf("report attr %d does not match group %d's attribute %d", sub.attr, sub.rep.Group, want)
	}
	return wire.DispositionAccepted, nil
}

// commitLocked appends the batch's accepted reports to the WAL in one write,
// then folds and counts them. A WAL record's mode and longitudinal flag are
// the round's, which the channel check proved equal to the report's claim. A
// failed write refuses the batch before anything is counted, so the client's
// retry cannot double-count. Caller holds s.mu.
func (s *Server) commitLocked(b *batch) error {
	if s.wal != nil {
		b.recs = b.recs[:0]
		for i := range b.subs {
			if sub := &b.subs[i]; sub.disp == wire.DispositionAccepted {
				b.recs = append(b.recs, reportlog.Record{
					Type: reportlog.TypeReport, ReportID: sub.idStr, Group: sub.rep.Group,
					Proto: wire.ProtoName(sub.rep.Proto), Value: sub.rep.Value, Seed: sub.rep.Seed,
					Mode: s.modeName, Longitudinal: s.longitudinal != nil,
				})
			}
		}
		if err := s.wal.AppendBatch(b.recs); err != nil {
			s.logf("httpapi: wal append: %v", err)
			return fmt.Errorf("report log unavailable")
		}
	}
	accepted := 0
	for i := range b.subs {
		sub := &b.subs[i]
		if sub.disp != wire.DispositionAccepted {
			continue
		}
		if err := s.col.Add(sub.rep); err != nil {
			// Check passed under this same lock hold; unreachable short of a
			// bug. The reports before this one are counted and logged: the
			// client's retry turns them into duplicates.
			return err
		}
		key, _ := packKey(sub.rep) // Check passed, so the report packs
		s.dedup.put(sub.id, key)
		s.wireBytes[wire.ProtoName(sub.rep.Proto)] += int64(sub.size)
		accepted++
	}
	if accepted > 0 {
		s.modeAccepted[s.mode.String()] += accepted
	}
	return nil
}
