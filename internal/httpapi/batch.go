package httpapi

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// This file is the server half of the batched binary ingest path
// (POST /v1/reports): one wire frame carries N reports, and the whole frame
// is ingested under a single lock hold with a single WAL write and a single
// fsync. The batch is a transport optimization, not a semantic unit — every
// report inside it gets the byte-identical disposition it would get on the
// single-report JSON path, and the final estimates cannot tell the two
// ingest paths apart.
//
// Durability contract: a frame's accepted reports are appended to the WAL in
// one Write and fsynced once before the 200 goes out. A crash before the
// sync loses at most an unacknowledged frame; the client retries it and the
// idempotency keys turn the re-ingest into duplicates. Holding s.mu across
// the frame makes the batch atomic with respect to a concurrent seal or
// finalize: a frame never straddles a round boundary.

// maxBatchFrameBody caps a POST /v1/reports body: the largest legal frame plus
// its header, with nothing to spare for a hostile length claim.
const maxBatchFrameBody = wire.MaxFramePayload + 64

// batchBodyPool recycles frame read buffers across batch requests so a
// steady ingest load costs zero body allocations.
var batchBodyPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// decodeFrame validates a frame's envelope and decodes every record into
// b.subs, returning the mode the frame claims. Nothing is classified until
// the whole frame has decoded, so a record that lies refuses the frame with
// nothing charged but the frame itself.
func (b *batch) decodeFrame(frame []byte) (fo.ReportMode, error) {
	if _, err := b.reader.Reset(frame); err != nil {
		return 0, err
	}
	b.subs = b.subs[:0]
	for b.reader.Next() {
		r := &b.reader
		b.subs = append(b.subs, submission{id: r.ID, rep: r.Report, attr: r.Attr, size: r.RecordBytes()})
	}
	return b.reader.Mode, b.reader.Err()
}

// IngestFrame ingests one binary batch frame and returns the per-report
// dispositions. A frame-level refusal (damage, malformed records, a foreign
// channel, a closed server, a failed WAL write) returns a non-nil error with
// the HTTP status to answer, and no report of the frame was counted; a frame
// refused as malformed or foreign charges the rejection counters once per
// report it claimed. On success every report was classified exactly as the
// single-report path would have and the accepted ones are durable.
//
// Exported so the benchmark harness can drive the decode→dedup→fold path
// directly and meter its allocations.
func (s *Server) IngestFrame(frame []byte) (wire.BatchReportResponse, int, error) {
	resp, wal, status, err := s.admitFrame(frame)
	if err != nil {
		return resp, status, err
	}
	// One fsync per frame, outside the lock so concurrent frames overlap
	// their disk waits with other shards' classification. The ack only goes
	// out after the sync: a crash in between loses nothing acknowledged.
	if resp.Accepted > 0 && wal != nil {
		if err := wal.Sync(); err != nil {
			s.logf("httpapi: wal batch sync: %v", err)
			// Counted but not durable and not acknowledged; the retry turns
			// into all-duplicates.
			return wire.BatchReportResponse{}, http.StatusInternalServerError, fmt.Errorf("report log unavailable")
		}
	}
	return resp, http.StatusOK, nil
}

// admitFrame is IngestFrame's locked part: it decodes and admits the frame
// under s.mu, released on every exit, a panic included, and returns the WAL
// the accepted reports were written to, for the sync that follows.
func (s *Server) admitFrame(frame []byte) (resp wire.BatchReportResponse, wal *reportlog.Log, status int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.batch
	mode, err := b.decodeFrame(frame)
	if err != nil {
		s.rejectLocked(s.mode, wire.FrameReportCount(frame))
		return resp, nil, http.StatusBadRequest, err
	}
	// A frame claims its header's mode for all its reports, and the binary
	// format has no longitudinal marker: its reports are one-shot. A foreign
	// channel refuses the frame wholesale — none of its reports can be folded
	// here; the longitudinal path is the single-report JSON endpoint.
	if err := s.checkChannel(mode, false); err != nil {
		s.rejectLocked(mode, len(b.subs))
		return resp, nil, http.StatusBadRequest, fmt.Errorf("batch frame refused: %w", err)
	}
	if status, err := s.admitLocked(b); err != nil {
		return resp, nil, status, err
	}
	resp.Round = s.cur.num
	resp.Dispositions = make([]int, len(b.subs))
	for i := range b.subs {
		d := b.subs[i].disp
		resp.Dispositions[i] = d
		switch d {
		case wire.DispositionAccepted:
			resp.Accepted++
		case wire.DispositionDuplicate:
			resp.Duplicate++
		case wire.DispositionConflict:
			resp.Conflict++
		default:
			resp.Rejected++
		}
	}
	return resp, s.cur.wal, http.StatusOK, nil
}

// handleReportBatch serves POST /v1/reports: a binary wire frame in, a JSON
// BatchReportResponse out.
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchFrameBody)
	bufp := batchBodyPool.Get().(*[]byte)
	defer batchBodyPool.Put(bufp)
	buf, err := readAllInto((*bufp)[:0], r.Body)
	*bufp = buf[:0]
	if err != nil {
		// An oversized or unreadable frame is N refused submissions, not one:
		// charge the header's claim (or 1 if even that is gone).
		s.mu.Lock()
		s.rejectLocked(s.mode, wire.FrameReportCount(buf))
		s.mu.Unlock()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch frame exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading batch frame: %w", err))
		return
	}
	resp, status, err := s.IngestFrame(buf)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, status, resp)
}

// readAllInto is io.ReadAll into a caller-owned buffer, so pooled buffers
// absorb the growth across requests.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				return buf, nil
			}
			return buf, err
		}
	}
}
