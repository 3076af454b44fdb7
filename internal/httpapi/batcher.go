package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/wire"
)

// frameContentType is the POST /v1/reports request body type: a binary
// wire frame, not JSON.
const frameContentType = "application/x-felip-frame"

// ReportBatch submits many reports in one binary frame (POST /v1/reports)
// and returns the per-report dispositions in submission order. The frame
// bytes — idempotency keys included — are re-sent verbatim across the
// client's retries, so a response lost in transit turns the resubmission
// into duplicates, never double counts. Callers needing the single-report
// error semantics can inspect each disposition; the call itself only fails
// on transport or frame-level refusal.
func (c *Client) ReportBatch(ctx context.Context, reports []wire.BatchReport) (wire.BatchReportResponse, error) {
	return c.ReportBatchMode(ctx, fo.ModeFELIP, reports)
}

// ReportBatchMode is ReportBatch under a reporting mode: FELIP batches ship
// the identical v1 frame bytes, SPL and RS+FD batches ship a v2 frame
// carrying the mode and each report's attribute index.
func (c *Client) ReportBatchMode(ctx context.Context, mode fo.ReportMode, reports []wire.BatchReport) (wire.BatchReportResponse, error) {
	frame, err := wire.EncodeFrameMode(mode, reports)
	if err != nil {
		return wire.BatchReportResponse{}, err
	}
	return c.ReportFrame(ctx, frame, len(reports))
}

// ReportFrame submits an already-encoded batch frame. Callers that reuse a
// frame buffer across submissions (the Batcher, the load generator) encode
// once and post the same bytes on every retry. n is the report count the
// frame carries, used only to validate the response shape.
func (c *Client) ReportFrame(ctx context.Context, frame []byte, n int) (wire.BatchReportResponse, error) {
	var resp wire.BatchReportResponse
	if _, err := c.doTyped(ctx, http.MethodPost, "/v1/reports", frame, frameContentType, &resp); err != nil {
		return wire.BatchReportResponse{}, err
	}
	if len(resp.Dispositions) != n {
		return wire.BatchReportResponse{}, fmt.Errorf("httpapi: batch of %d reports answered with %d dispositions", n, len(resp.Dispositions))
	}
	return resp, nil
}

// FrameSender is the submission half of Client a Batcher needs — satisfied
// by *Client and by the cluster's routing client.
type FrameSender interface {
	ReportBatchMode(ctx context.Context, mode fo.ReportMode, reports []wire.BatchReport) (wire.BatchReportResponse, error)
}

// BatcherConfig tunes a Batcher's flush triggers.
type BatcherConfig struct {
	// Mode is the reporting mode the batcher's frames claim (default FELIP,
	// which ships v1 frames). Under a non-FELIP mode every Add must carry the
	// report's attribute index (use AddMode).
	Mode fo.ReportMode
	// MaxReports flushes when this many reports are buffered (default 512,
	// capped at wire.MaxFrameReports).
	MaxReports int
	// MaxAge flushes the buffer when its oldest report has waited this long,
	// even if the size trigger is far away (default 250ms). The age flush
	// fires from a timer, so a trickle of reports still ships promptly.
	MaxAge time.Duration
	// FlushCtx bounds timer-driven flushes (default context.Background();
	// explicit Flush calls use the caller's context).
	FlushCtx context.Context
}

// BatcherStats counts a batcher's lifetime outcomes.
type BatcherStats struct {
	Accepted   int
	Duplicate  int
	Conflict   int
	Rejected   int
	Frames     int
	FlushFails int
	// FrameBytes is the total encoded size of every successfully shipped
	// frame — the wire cost of this batcher's traffic, which is what the
	// mode shootout compares across FELIP/SPL/RS+FD.
	FrameBytes int64
}

// Batcher coalesces single reports into batch frames with size and age flush
// triggers — the device-fleet edge of the batched ingest path. A flush that
// fails keeps its reports buffered and retries them in the next flush under
// the same idempotency keys, so no report is lost and none can double-count.
// Safe for concurrent use; Add may block while a flush is in flight (the
// flush owns the buffer until the server answers).
type Batcher struct {
	send FrameSender
	cfg  BatcherConfig

	mu     sync.Mutex
	buf    []wire.BatchReport
	timer  *time.Timer
	closed bool
	stats  BatcherStats
}

// NewBatcher builds a batcher submitting through send (typically a *Client).
func NewBatcher(send FrameSender, cfg BatcherConfig) *Batcher {
	if cfg.MaxReports <= 0 {
		cfg.MaxReports = 512
	}
	if cfg.MaxReports > wire.MaxFrameReports {
		cfg.MaxReports = wire.MaxFrameReports
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = 250 * time.Millisecond
	}
	if cfg.FlushCtx == nil {
		cfg.FlushCtx = context.Background()
	}
	return &Batcher{send: send, cfg: cfg}
}

// Add buffers one report, flushing if the size trigger fires. The id is the
// report's idempotency key and must be stable across any caller-side
// resubmission of the same report.
func (b *Batcher) Add(ctx context.Context, id string, rep core.Report) error {
	return b.add(ctx, wire.BatchReport{ID: id, Report: rep})
}

// AddMode buffers one mode-produced report, attribute index included — what
// non-FELIP frames carry per record. Works for FELIP too (the attr simply
// never reaches the v1 wire).
func (b *Batcher) AddMode(ctx context.Context, id string, rep core.ModeReport) error {
	return b.add(ctx, wire.BatchReport{ID: id, Report: rep.Report, Attr: rep.Attr})
}

func (b *Batcher) add(ctx context.Context, br wire.BatchReport) error {
	if br.ID == "" {
		return fmt.Errorf("httpapi: batcher needs an idempotency key per report")
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("httpapi: batcher closed")
	}
	b.buf = append(b.buf, br)
	if len(b.buf) >= b.cfg.MaxReports {
		return b.flushLocked(ctx) // unlocks
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.cfg.MaxAge, b.ageFlush)
	}
	b.mu.Unlock()
	return nil
}

// Flush ships everything buffered now. A no-op on an empty buffer.
func (b *Batcher) Flush(ctx context.Context) error {
	b.mu.Lock()
	if len(b.buf) == 0 {
		b.mu.Unlock()
		return nil
	}
	return b.flushLocked(ctx) // unlocks
}

// Close flushes the tail and stops the age timer. The batcher refuses Adds
// afterwards.
func (b *Batcher) Close(ctx context.Context) error {
	err := b.Flush(ctx)
	b.mu.Lock()
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.mu.Unlock()
	return err
}

// Stats snapshots the lifetime counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Pending reports how many reports are buffered awaiting a flush.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// ageFlush is the timer callback: flush whatever aged in the buffer.
func (b *Batcher) ageFlush() {
	b.mu.Lock()
	if b.closed || len(b.buf) == 0 {
		b.timer = nil
		b.mu.Unlock()
		return
	}
	// Errors surface through stats (and the reports stay buffered for the
	// next trigger); an age flush has no caller to hand them to.
	_ = b.flushLocked(b.cfg.FlushCtx) // unlocks
}

// flushLocked ships the buffer as one frame. Called with b.mu held; always
// unlocks. On failure the reports stay buffered — identical keys on the next
// attempt mean the server dedups anything it already counted.
func (b *Batcher) flushLocked(ctx context.Context) error {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	batch := b.buf
	resp, err := b.send.ReportBatchMode(ctx, b.cfg.Mode, batch)
	if err != nil {
		b.stats.FlushFails++
		if len(b.buf) > 0 {
			b.timer = time.AfterFunc(b.cfg.MaxAge, b.ageFlush)
		}
		b.mu.Unlock()
		return fmt.Errorf("httpapi: batch flush of %d reports: %w", len(batch), err)
	}
	b.buf = b.buf[len(batch):]
	if len(b.buf) == 0 {
		// Reclaim the slice so a long-lived batcher doesn't pin the high-water
		// buffer forever via the advancing slice header.
		b.buf = nil
	} else {
		b.timer = time.AfterFunc(b.cfg.MaxAge, b.ageFlush)
	}
	b.stats.Frames++
	b.stats.FrameBytes += int64(wire.FrameSizeMode(b.cfg.Mode, batch))
	b.stats.Accepted += resp.Accepted
	b.stats.Duplicate += resp.Duplicate
	b.stats.Conflict += resp.Conflict
	b.stats.Rejected += resp.Rejected
	b.mu.Unlock()
	return nil
}
