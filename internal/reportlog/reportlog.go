// Package reportlog implements the aggregator's durable write-ahead report
// log. Every report the collection round accepts is appended before it is
// acknowledged to the device, so a crashed aggregator can replay the log on
// startup and resume the round exactly where it stopped — the deployment
// property FELIP's estimator depends on (each user counted exactly once).
//
// On-disk format: a sequence of records, each
//
//	[4-byte big-endian payload length][4-byte CRC32-IEEE of payload][payload]
//
// where the payload is the JSON encoding of a Record. Each Append issues a
// single Write, so a crash can only tear the final record. Replay stops at
// the first record whose header, checksum, or encoding is invalid and
// truncates the file there: a torn tail is by construction a report that was
// never acknowledged, so dropping it is safe — the device will retry it.
package reportlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
)

// Record types.
const (
	// TypeReport is one accepted ε-LDP report.
	TypeReport = "report"
	// TypeFinalize marks the round closed; no reports follow it.
	TypeFinalize = "finalize"
)

// Record is one durable event of a collection round.
type Record struct {
	Type     string `json:"type"`
	ReportID string `json:"report_id,omitempty"`
	Group    int    `json:"group,omitempty"`
	Proto    string `json:"proto,omitempty"`
	Value    int    `json:"value,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Mode is the report's reporting mode in wire name form; "" is FELIP, so
	// every v1 segment (written before modes existed) replays as FELIP and
	// FELIP rounds keep writing byte-identical v1 records. Replay validates it
	// against the round's plan.
	Mode string `json:"mode,omitempty"`
	// Longitudinal marks a report produced by the memoized two-stage chain;
	// absent (false) on every one-shot record, so v1 segments keep writing and
	// replaying byte-identical records. Replay validates the flag against the
	// round's plan: a longitudinal segment must never fold into a one-shot
	// round, or vice versa.
	Longitudinal bool `json:"longitudinal,omitempty"`
	// Reports is the accepted-report count at finalization (TypeFinalize).
	Reports int `json:"reports,omitempty"`
	// Rejected is the round's refused-submission count when it closed
	// (TypeFinalize), which replay restores. Absent when zero, so a round
	// without rejections writes the record it always did.
	Rejected int `json:"rejected,omitempty"`
}

// File is the storage a Log writes through; *os.File satisfies it. It is a
// parameter (rather than a hard-wired *os.File) so tests can interpose
// fault-injecting wrappers.
type File interface {
	io.ReadWriteCloser
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

const (
	headerLen = 8
	// maxPayload bounds a single record; anything larger during replay is
	// treated as corruption, not an allocation request.
	maxPayload = 1 << 20
)

// Log is an append-only, checksummed record log. It is safe for concurrent
// use.
type Log struct {
	mu  sync.Mutex
	f   File
	pos int64
	// batchBuf is AppendBatch's reusable encode buffer: the batch ingest path
	// appends thousands of records per call and must not pay an allocation per
	// record. Only ever used while encoding a batch (guarded by mu for
	// ownership handoff).
	batchBuf []byte
}

// Open opens (creating if absent) the log at path, replays every intact
// record, truncates any torn or corrupt tail, and returns the log positioned
// for appending together with the replayed records.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("reportlog: %w", err)
	}
	l, recs, err := OpenFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

// OpenFile is Open over an already-opened File (for tests and fault
// injection). The file is rewound, replayed, and truncated past the last
// intact record.
func OpenFile(f File) (*Log, []Record, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("reportlog: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reportlog: %w", err)
	}
	// A defect ends the log: a torn tail is a record that was never
	// acknowledged, and nothing after a corrupt frame can be trusted.
	recs, pos, _ := scan(data)
	if err := f.Truncate(pos); err != nil {
		return nil, nil, fmt.Errorf("reportlog: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("reportlog: %w", err)
	}
	return &Log{f: f, pos: pos}, recs, nil
}

// scan parses data as a sequence of frames. It returns the records of every
// intact frame before the first defect, the end offset of the last of them,
// and the defect itself: nil exactly when data ends on a frame boundary.
// Open forgives the defect and truncates at end; VerifySegment refuses it.
func scan(data []byte) (recs []Record, end int64, defect error) {
	for {
		rest := data[end:]
		if len(rest) == 0 {
			return recs, end, nil
		}
		if len(rest) < headerLen {
			return recs, end, fmt.Errorf("reportlog: segment torn mid-header at offset %d", end)
		}
		length := binary.BigEndian.Uint32(rest[0:4])
		if length == 0 || length > maxPayload {
			return recs, end, fmt.Errorf("reportlog: segment frame at offset %d claims %d payload bytes", end, length)
		}
		if len(rest)-headerLen < int(length) {
			return recs, end, fmt.Errorf("reportlog: segment torn mid-payload at offset %d", end)
		}
		payload := rest[headerLen : headerLen+int(length)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return recs, end, fmt.Errorf("reportlog: segment frame at offset %d fails its checksum", end)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, end, fmt.Errorf("reportlog: segment frame at offset %d: %w", end, err)
		}
		recs = append(recs, rec)
		end += headerLen + int64(length)
	}
}

// Append encodes and writes one record. The record is handed to the OS in a
// single Write call, so it survives a process crash immediately; call Sync to
// also survive an OS crash.
func (l *Log) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("reportlog: %w", err)
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("reportlog: record of %d bytes exceeds %d", len(payload), maxPayload)
	}
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerLen:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.Write(buf)
	l.pos += int64(n)
	if err != nil {
		return fmt.Errorf("reportlog: append: %w", err)
	}
	return nil
}

// AppendBatch encodes every record into one buffer and hands it to the OS in
// a single Write call — the batch-ingest durability step: one write (and one
// caller-issued Sync) per frame instead of per report. The on-disk format is
// unchanged — the same framed records Append writes, so replay, shipping,
// and verification cannot tell a batch from a run of singles. A crash can
// tear the batch mid-write; whole records before the tear replay normally
// (Open truncates at the tear), and a retried frame's dedup keys make the
// re-ingest exactly-once.
//
// Report records are encoded with a hand-rolled JSON writer (no per-record
// json.Marshal allocation) that produces what encoding/json parses back to
// the identical Record; other record types fall back to json.Marshal.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := l.batchBuf[:0]
	var err error
	for i := range recs {
		buf, err = appendFramedRecord(buf, &recs[i])
		if err != nil {
			return err
		}
	}
	l.batchBuf = buf[:0] // keep the grown buffer for the next batch
	n, err := l.f.Write(buf)
	l.pos += int64(n)
	if err != nil {
		return fmt.Errorf("reportlog: append batch: %w", err)
	}
	return nil
}

// appendFramedRecord appends one record's frame (header + JSON payload) to
// buf, avoiding json.Marshal for the report records the batch hot path
// writes.
func appendFramedRecord(buf []byte, rec *Record) ([]byte, error) {
	frameStart := len(buf)
	buf = append(buf, make([]byte, headerLen)...)
	payloadStart := len(buf)
	if rec.Type == TypeReport && jsonSafe(rec.ReportID) && jsonSafe(rec.Proto) && jsonSafe(rec.Mode) {
		buf = append(buf, `{"type":"report","report_id":"`...)
		buf = append(buf, rec.ReportID...)
		buf = append(buf, `","group":`...)
		buf = strconv.AppendInt(buf, int64(rec.Group), 10)
		buf = append(buf, `,"proto":"`...)
		buf = append(buf, rec.Proto...)
		buf = append(buf, `","value":`...)
		buf = strconv.AppendInt(buf, int64(rec.Value), 10)
		buf = append(buf, `,"seed":`...)
		buf = strconv.AppendUint(buf, rec.Seed, 10)
		if rec.Mode != "" {
			buf = append(buf, `,"mode":"`...)
			buf = append(buf, rec.Mode...)
			buf = append(buf, '"')
		}
		if rec.Longitudinal {
			buf = append(buf, `,"longitudinal":true`...)
		}
		buf = append(buf, '}')
	} else {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("reportlog: %w", err)
		}
		buf = append(buf, payload...)
	}
	n := len(buf) - payloadStart
	if n > maxPayload {
		return nil, fmt.Errorf("reportlog: record of %d bytes exceeds %d", n, maxPayload)
	}
	binary.BigEndian.PutUint32(buf[frameStart:], uint32(n))
	binary.BigEndian.PutUint32(buf[frameStart+4:], crc32.ChecksumIEEE(buf[payloadStart:]))
	return buf, nil
}

// jsonSafe reports whether s can be embedded in a JSON string without
// escaping — true for every ID wire.NewReportID mints; anything exotic
// falls back to the standard encoder.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7F || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Pos returns the current end-of-log byte offset.
func (l *Log) Pos() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Close syncs and closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("reportlog: %w", err)
	}
	return l.f.Close()
}

// ReportRecord builds the Record for one accepted report (FELIP mode — the
// only mode v1 segments could hold).
func ReportRecord(id string, group int, proto string, value int, seed uint64) Record {
	return Record{Type: TypeReport, ReportID: id, Group: group, Proto: proto, Value: value, Seed: seed}
}

// ReportRecordMode builds the Record for one accepted report under a
// reporting mode (wire name form; "" = FELIP, producing a byte-identical v1
// record).
func ReportRecordMode(id string, group int, proto string, value int, seed uint64, mode string) Record {
	return Record{Type: TypeReport, ReportID: id, Group: group, Proto: proto, Value: value, Seed: seed, Mode: mode}
}

// ReportRecordLongitudinal builds the Record for one accepted memoized
// two-stage report.
func ReportRecordLongitudinal(id string, group int, proto string, value int, seed uint64) Record {
	return Record{Type: TypeReport, ReportID: id, Group: group, Proto: proto, Value: value, Seed: seed, Longitudinal: true}
}

// FinalizeRecord builds the Record closing a round of n accepted reports
// and rejected refused submissions.
func FinalizeRecord(n, rejected int) Record {
	return Record{Type: TypeFinalize, Reports: n, Rejected: rejected}
}
