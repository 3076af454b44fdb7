package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unicode/utf8"

	"felip/internal/core"
	"felip/internal/fo"
)

// This file is the batched binary ingest wire: a length-prefixed,
// CRC32-checked frame carrying N ε-LDP reports in one POST /v1/reports
// request. At millions of devices the ingest bottleneck is protocol
// overhead — one JSON POST per report costs a request, a decoder
// allocation, and a map churn each — so the batch path moves whole frames:
// one HTTP exchange, one checksum, one WAL write, one fsync per N reports.
//
// Frame layout (all integers little-endian):
//
//	magic   "FELIPBF1"                  (8 bytes)
//	count   u32   number of reports
//	paylen  u32   payload length in bytes
//	crc     u32   CRC32-IEEE of the payload
//	payload count records, each:
//	  idlen u8    report_id length (1..MaxReportIDLen)
//	  id    idlen bytes, valid UTF-8
//	  proto u8    0=GRR 1=OLH 3=HR (2 is reserved: OUE has no record)
//	  group u32
//	  value u32
//	  seed  u64   (HR records: sign u8 instead — see below)
//
// HR records are compact: an HR report carries only a Hadamard row index
// (value) and a sign bit, so the u64 seed field shrinks to one sign byte
// (0=+1, 1=−1) and an HR record tail is 10 bytes instead of 17. The
// decoder branches on the proto byte it just read; records of the other
// protocols keep their exact pre-HR byte layout. A record carries an
// oracle's (value, seed) report pair (fo.Perturber), which OUE's L-bit
// report has no form of: the encoder refuses an OUE report and the decoder
// refuses a frame holding proto byte 2, like an unknown protocol byte.
//
// The envelope discipline is the archive's FELIPSNP one — magic, explicit
// length, checksum over the payload — so a torn or damaged frame is refused
// before a single report inside it is trusted. Reports inside a frame keep
// their individual idempotency keys: the batch is a transport optimization,
// not a semantic unit, and every report gets the same accept/duplicate/
// conflict disposition it would get on the single-report path.

// FrameMagic opens every v1 batch report frame.
const FrameMagic = "FELIPBF1"

// FrameMagicV2 opens a v2 frame: the header gains a mode byte and every
// record a u16 attribute index, so SPL and RS+FD batches carry their mode on
// the wire. FELIP batches keep emitting v1 frames byte-identically (see
// EncodeFrameMode), and v1 frames always decode as FELIP mode.
//
//	magic   "FELIPBF2"                  (8 bytes)
//	mode    u8    0=FELIP 1=SPL 2=RS+FD
//	count   u32   number of reports
//	paylen  u32   payload length in bytes
//	crc     u32   CRC32-IEEE of the payload
//	payload count records, each:
//	  idlen u8    report_id length (1..MaxReportIDLen)
//	  id    idlen bytes, valid UTF-8
//	  proto u8    0=GRR 1=OLH 3=HR (2 is reserved: OUE has no record)
//	  group u32
//	  value u32
//	  seed  u64   (HR records: sign u8 instead)
//	  attr  u16   grid's primary attribute index
const FrameMagicV2 = "FELIPBF2"

// frameHeaderLen is magic + count u32 + paylen u32 + crc u32.
const frameHeaderLen = len(FrameMagic) + 12

// frameHeaderLenV2 adds the mode byte.
const frameHeaderLenV2 = len(FrameMagicV2) + 13

// MaxFrameAttr bounds a record's attribute index: it travels as a u16.
const MaxFrameAttr = 1<<16 - 1

// MaxFrameReports bounds the reports one frame may carry; a client batcher
// flushes at or below it, and a server refuses a frame claiming more.
const MaxFrameReports = 16384

// MaxFramePayload bounds a frame's payload bytes (a report encodes to at
// most 1+128+1+4+4+8 = 146 bytes, so the cap is generous for any legal
// frame but refuses a hostile length field before any allocation).
const MaxFramePayload = MaxFrameReports * 160

// Per-report disposition codes in a BatchReportResponse, deliberately the
// HTTP statuses the single-report path answers: a batch entry and a lone
// POST /v1/report of the same report always agree.
const (
	DispositionAccepted  = 204 // counted now, durable before the ack
	DispositionDuplicate = 200 // already counted under this key (honest retry)
	DispositionConflict  = 409 // key reused with a different payload, or round closed
	DispositionRejected  = 400 // failed wire or plan validation
)

// BatchReport is one report of a batch frame: the device's idempotency key
// plus its ε-LDP report. Attr is the grid's primary attribute index; it only
// travels in v2 frames (non-FELIP modes) and is ignored by the v1 encoder.
type BatchReport struct {
	ID     string
	Report core.Report
	Attr   int
}

// BatchReportResponse answers POST /v1/reports: per-report dispositions in
// frame order plus the tallies. A device-side batcher treats Accepted and
// Duplicate entries as settled and may drop them; Conflict and Rejected
// entries are misbehavior (or a closed round) and retrying them verbatim
// will not change the answer.
type BatchReportResponse struct {
	Round        int   `json:"round"`
	Accepted     int   `json:"accepted"`
	Duplicate    int   `json:"duplicate"`
	Conflict     int   `json:"conflict"`
	Rejected     int   `json:"rejected"`
	Dispositions []int `json:"dispositions"`
}

// AppendFrame encodes the reports as one v1 (FELIP) binary frame appended to
// dst (which may be nil) and returns the extended slice. Every report is
// validated to the same wire-level invariants ReportMessage.Validate
// enforces, so an encoded frame never carries a report the server would
// refuse for shape alone.
func AppendFrame(dst []byte, reports []BatchReport) ([]byte, error) {
	return AppendFrameMode(dst, fo.ModeFELIP, reports)
}

// EncodeFrame is AppendFrame into a fresh buffer.
func EncodeFrame(reports []BatchReport) ([]byte, error) {
	return AppendFrame(nil, reports)
}

// AppendFrameMode encodes the reports as one frame under the given reporting
// mode. FELIP batches emit the v1 layout byte-for-byte — a mode-aware sender
// talking to a v1 server (or shipping WAL bytes to a v1 follower) stays
// wire-compatible — while SPL and RS+FD batches emit a v2 frame carrying the
// mode and each record's attribute index. The two layouts differ only there:
// v1 has no mode byte in its header and no attr in its records.
func AppendFrameMode(dst []byte, mode fo.ReportMode, reports []BatchReport) ([]byte, error) {
	if mode != fo.ModeFELIP && mode != fo.ModeSPL && mode != fo.ModeRSFD {
		return nil, fmt.Errorf("wire: unknown report mode %v", mode)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("wire: empty batch frame")
	}
	if len(reports) > MaxFrameReports {
		return nil, fmt.Errorf("wire: batch of %d reports exceeds %d", len(reports), MaxFrameReports)
	}
	v2 := mode != fo.ModeFELIP
	if v2 {
		dst = append(dst, FrameMagicV2...)
		dst = append(dst, byte(mode))
	} else {
		dst = append(dst, FrameMagic...)
	}
	countAt := len(dst)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(reports)))
	dst = append(dst, hdr[:]...) // count + paylen + crc, patched below
	payloadStart := len(dst)

	var rec [19]byte // proto + group + value + seed (HR: sign u8) + attr
	for i, br := range reports {
		if br.ID == "" {
			return nil, fmt.Errorf("wire: batch report %d missing report_id", i)
		}
		if len(br.ID) > MaxReportIDLen {
			return nil, fmt.Errorf("wire: batch report %d report_id of %d bytes exceeds %d", i, len(br.ID), MaxReportIDLen)
		}
		if !utf8.ValidString(br.ID) {
			return nil, fmt.Errorf("wire: batch report %d report_id is not valid UTF-8", i)
		}
		if !br.Report.Proto.HasPairReport() {
			return nil, fmt.Errorf("wire: batch report %d: %v reports have no frame record", i, br.Report.Proto)
		}
		if br.Report.Group < 0 {
			return nil, fmt.Errorf("wire: batch report %d: negative group %d", i, br.Report.Group)
		}
		if br.Report.Value < 0 {
			return nil, fmt.Errorf("wire: batch report %d: negative value %d", i, br.Report.Value)
		}
		if v2 && (br.Attr < 0 || br.Attr > MaxFrameAttr) {
			return nil, fmt.Errorf("wire: batch report %d: attr %d outside [0,%d]", i, br.Attr, MaxFrameAttr)
		}
		dst = append(dst, byte(len(br.ID)))
		dst = append(dst, br.ID...)
		rec[0] = byte(br.Report.Proto)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(br.Report.Group))
		binary.LittleEndian.PutUint32(rec[5:9], uint32(br.Report.Value))
		tail := recordTail(br.Report.Proto, v2)
		if br.Report.Proto == fo.HR {
			if br.Report.Seed > 1 {
				return nil, fmt.Errorf("wire: batch report %d: HR sign bit %d outside {0,1}", i, br.Report.Seed)
			}
			rec[9] = byte(br.Report.Seed)
		} else {
			binary.LittleEndian.PutUint64(rec[9:17], br.Report.Seed)
		}
		if v2 {
			binary.LittleEndian.PutUint16(rec[tail-2:tail], uint16(br.Attr))
		}
		dst = append(dst, rec[:tail]...)
	}

	payload := dst[payloadStart:]
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("wire: frame payload of %d bytes exceeds %d", len(payload), MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[countAt+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[countAt+8:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// EncodeFrameMode is AppendFrameMode into a fresh buffer.
func EncodeFrameMode(mode fo.ReportMode, reports []BatchReport) ([]byte, error) {
	return AppendFrameMode(nil, mode, reports)
}

// recordTail is a record's size after its id: proto + group + value + seed,
// where an HR record carries one sign byte instead of the u64 seed, plus the
// u16 attr in a v2 frame.
func recordTail(proto fo.Protocol, v2 bool) int {
	tail := 17
	if proto == fo.HR {
		tail = 10
	}
	if v2 {
		tail += 2
	}
	return tail
}

// FrameSizeMode returns the exact encoded size of the frame EncodeFrameMode
// would produce, without encoding — what a batcher charges its wire-byte
// accounting per flush.
func FrameSizeMode(mode fo.ReportMode, reports []BatchReport) int {
	v2 := mode != fo.ModeFELIP
	size := frameHeaderLen
	if v2 {
		size = frameHeaderLenV2
	}
	for _, br := range reports {
		size += 1 + len(br.ID) + recordTail(br.Report.Proto, v2)
	}
	return size
}

// FrameReportCount peeks a (possibly damaged) frame's claimed report count
// without trusting anything past the header — what a server charges its
// rejection counter with when the frame as a whole is refused: a refused
// batch is N refused reports, not one refused request. Returns 1 when even
// the header is unreadable (the claim itself is gone, but at least one
// submission was refused).
func FrameReportCount(b []byte) int {
	countAt := -1
	switch {
	case len(b) >= frameHeaderLen && string(b[:len(FrameMagic)]) == FrameMagic:
		countAt = len(FrameMagic)
	case len(b) >= frameHeaderLenV2 && string(b[:len(FrameMagicV2)]) == FrameMagicV2:
		countAt = len(FrameMagicV2) + 1 // skip the mode byte
	}
	if countAt < 0 {
		return 1
	}
	n := int(binary.LittleEndian.Uint32(b[countAt:]))
	if n < 1 {
		return 1
	}
	if n > MaxFrameReports {
		return MaxFrameReports
	}
	return n
}

// FrameReader iterates a binary batch frame without allocating per report:
// Reset validates the envelope (magic, bounds, checksum) up front, and each
// Next fills the reader's reusable ID/Report fields in place — ID aliases
// the frame buffer and is only valid until the following Next.
type FrameReader struct {
	payload  []byte
	count    int
	next     int
	off      int
	v2       bool
	recBytes int
	err      error

	// Mode is the frame's reporting mode: the v2 header's mode byte, or
	// ModeFELIP for every v1 frame.
	Mode fo.ReportMode
	// ID is the current report's idempotency key, aliasing the frame buffer.
	ID []byte
	// Report is the current report, decoded.
	Report core.Report
	// Attr is the current report's attribute index (v2 frames), or -1 for v1
	// records, which do not carry one.
	Attr int
}

// Reset validates the frame envelope and positions the reader at the first
// report. Both magics are accepted — a v1 frame reads back as Mode FELIP —
// and any damage (bad magic, hostile lengths, a checksum mismatch, an
// unknown mode byte) refuses the whole frame before a single report is
// surfaced.
func (r *FrameReader) Reset(b []byte) (count int, err error) {
	*r = FrameReader{Attr: -1}
	hdrLen := frameHeaderLen
	countAt := len(FrameMagic)
	switch {
	case len(b) >= len(FrameMagic) && string(b[:len(FrameMagic)]) == FrameMagic:
	case len(b) >= len(FrameMagicV2) && string(b[:len(FrameMagicV2)]) == FrameMagicV2:
		r.v2 = true
		hdrLen = frameHeaderLenV2
		countAt = len(FrameMagicV2) + 1
	default:
		if len(b) < len(FrameMagic) {
			return 0, fmt.Errorf("wire: frame of %d bytes is shorter than the %d-byte header", len(b), frameHeaderLen)
		}
		return 0, fmt.Errorf("wire: bad frame magic %q", b[:len(FrameMagic)])
	}
	if len(b) < hdrLen {
		return 0, fmt.Errorf("wire: frame of %d bytes is shorter than the %d-byte header", len(b), hdrLen)
	}
	if r.v2 {
		mode := fo.ReportMode(b[len(FrameMagicV2)])
		if mode != fo.ModeFELIP && mode != fo.ModeSPL && mode != fo.ModeRSFD {
			return 0, fmt.Errorf("wire: frame claims unknown mode byte %d", b[len(FrameMagicV2)])
		}
		r.Mode = mode
	}
	n := int(binary.LittleEndian.Uint32(b[countAt:]))
	paylen := int(binary.LittleEndian.Uint32(b[countAt+4:]))
	sum := binary.LittleEndian.Uint32(b[countAt+8:])
	if n < 1 || n > MaxFrameReports {
		return 0, fmt.Errorf("wire: frame claims %d reports (limit %d)", n, MaxFrameReports)
	}
	if paylen < 0 || paylen > MaxFramePayload {
		return 0, fmt.Errorf("wire: frame claims %d payload bytes (limit %d)", paylen, MaxFramePayload)
	}
	if len(b) != hdrLen+paylen {
		return 0, fmt.Errorf("wire: frame of %d bytes does not match header+%d-byte payload", len(b), paylen)
	}
	payload := b[hdrLen:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, fmt.Errorf("wire: frame checksum %08x, header claims %08x", got, sum)
	}
	r.payload = payload
	r.count = n
	return n, nil
}

// Next decodes the next report into the reader's ID and Report fields.
// Returns false at the end of the frame or on a malformed record (check
// Err). A record-level parse failure poisons the whole frame: the envelope
// checksum passed, so a bad record means a buggy or hostile encoder, not
// line noise, and none of the frame's reports should be trusted.
func (r *FrameReader) Next() bool {
	if r.err != nil || r.next >= r.count {
		return false
	}
	p, off := r.payload, r.off
	if off >= len(p) {
		r.err = fmt.Errorf("wire: frame record %d: payload exhausted after %d of %d reports", r.next, r.next, r.count)
		return false
	}
	idLen := int(p[off])
	off++
	if idLen < 1 || idLen > MaxReportIDLen || off+idLen+1 > len(p) {
		r.err = fmt.Errorf("wire: frame record %d: malformed (id length %d)", r.next, idLen)
		return false
	}
	r.ID = p[off : off+idLen]
	off += idLen
	// An id is text: the WAL writes it as a JSON string, which would replace
	// invalid UTF-8 and log the report under another id. These are the ids
	// the JSON endpoint can carry.
	if !utf8.Valid(r.ID) {
		r.err = fmt.Errorf("wire: frame record %d: report_id is not valid UTF-8", r.next)
		return false
	}
	proto := fo.Protocol(p[off])
	if !proto.HasPairReport() {
		r.err = fmt.Errorf("wire: frame record %d: protocol byte %d carries no report", r.next, p[off])
		return false
	}
	// The record tail depends on the protocol just read: HR records are
	// compact (one sign byte where the others carry a u64 seed).
	tail := recordTail(proto, r.v2)
	if off+tail > len(p) {
		r.err = fmt.Errorf("wire: frame record %d: truncated %v record", r.next, proto)
		return false
	}
	var seed uint64
	if proto == fo.HR {
		if p[off+9] > 1 {
			r.err = fmt.Errorf("wire: frame record %d: HR sign byte %d outside {0,1}", r.next, p[off+9])
			return false
		}
		seed = uint64(p[off+9])
	} else {
		seed = binary.LittleEndian.Uint64(p[off+9:])
	}
	r.Report = core.Report{
		Proto: proto,
		Group: int(int32(binary.LittleEndian.Uint32(p[off+1:]))),
		Value: int(int32(binary.LittleEndian.Uint32(p[off+5:]))),
		Seed:  seed,
	}
	if r.v2 {
		r.Attr = int(binary.LittleEndian.Uint16(p[off+tail-2:]))
	}
	r.recBytes = 1 + idLen + tail
	r.off = off + tail
	r.next++
	if r.Report.Group < 0 || r.Report.Value < 0 {
		r.err = fmt.Errorf("wire: frame record %d: negative group or value", r.next-1)
		return false
	}
	if r.next == r.count && r.off != len(p) {
		r.err = fmt.Errorf("wire: frame payload has %d trailing bytes after the last report", len(p)-r.off)
		return false
	}
	return true
}

// Err returns the record-level decode failure, if iteration stopped on one.
func (r *FrameReader) Err() error { return r.err }

// RecordBytes returns the encoded size of the record the last Next decoded
// (idlen byte + id + protocol-dependent tail) — what a server charges its
// per-protocol wire-byte accounting for that report.
func (r *FrameReader) RecordBytes() int { return r.recBytes }

// ProtoName returns the wire name of a frame protocol byte's protocol —
// what WAL records and the wire-byte counters name it by, shared with the
// JSON path.
func ProtoName(p fo.Protocol) string { return p.String() }
