package wire

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/reportlog"
)

// TestFrameRefusesInvalidUTF8IDs: a report_id that is not valid UTF-8 is
// neither encoded nor decoded. The WAL writes ids as JSON strings, where
// such an id would turn into another one.
func TestFrameRefusesInvalidUTF8IDs(t *testing.T) {
	bad := []BatchReport{{ID: "a\xff", Report: core.Report{Proto: fo.GRR}, Attr: 0}}
	for _, mode := range []fo.ReportMode{fo.ModeFELIP, fo.ModeSPL} {
		if _, err := EncodeFrameMode(mode, bad); err == nil {
			t.Errorf("mode %v: encoded a non-UTF-8 report_id", mode)
		}
	}
	if _, err := EncodeFrame(bad); err == nil {
		t.Error("EncodeFrame encoded a non-UTF-8 report_id")
	}

	// The same frame forged past the encoder: patch a placeholder id's byte
	// under a recomputed checksum.
	frame, err := EncodeFrame([]BatchReport{{ID: "a\x01", Report: core.Report{Proto: fo.GRR}}})
	if err != nil {
		t.Fatal(err)
	}
	frame[frameHeaderLen+2] = 0xff
	binary.LittleEndian.PutUint32(frame[len(FrameMagic)+8:], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
	var r FrameReader
	if _, err := r.Reset(frame); err != nil {
		t.Fatal(err)
	}
	if r.Next() || r.Err() == nil {
		t.Fatalf("reader accepted report_id %q", r.ID)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the frame reader, seeded with the
// golden frames: once as given, and once with the envelope's length and
// checksum recomputed, so mutations reach the records instead of stopping
// at the checksum. The reader must never panic, and every record it accepts
// must keep its id byte-identical through the WAL's encoding, since the WAL
// is what a restart rebuilds the dedup index from.
func FuzzFrameReader(f *testing.F) {
	for _, golden := range []string{goldenV1Frame, goldenHRFrame, goldenHRModeFrame} {
		frame, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	wal, err := os.Create(filepath.Join(f.TempDir(), "fuzz.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { wal.Close() })
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkIDsThroughWAL(t, wal, frame)
		checkIDsThroughWAL(t, wal, resealed(frame))
	})
}

// resealed returns a copy of frame whose header's payload length and
// checksum match its payload.
func resealed(frame []byte) []byte {
	b := append([]byte(nil), frame...)
	at, hdr := len(FrameMagic)+4, frameHeaderLen // paylen, then crc
	if len(b) >= frameHeaderLenV2 && string(b[:len(FrameMagicV2)]) == FrameMagicV2 {
		at, hdr = len(FrameMagicV2)+5, frameHeaderLenV2
	}
	if len(b) >= hdr {
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-hdr))
		binary.LittleEndian.PutUint32(b[at+4:], crc32.ChecksumIEEE(b[hdr:]))
	}
	return b
}

// checkIDsThroughWAL decodes frame and writes the records the reader
// accepts to a WAL, then reads them back: every id must return unchanged.
func checkIDsThroughWAL(t *testing.T, wal *os.File, frame []byte) {
	var r FrameReader
	if _, err := r.Reset(frame); err != nil {
		return
	}
	var recs []reportlog.Record
	for r.Next() {
		recs = append(recs, reportlog.Record{
			Type: reportlog.TypeReport, ReportID: string(r.ID), Group: r.Report.Group,
			Proto: ProtoName(r.Report.Proto), Value: r.Report.Value, Seed: r.Report.Seed, Mode: ModeName(r.Mode),
		})
	}
	if len(recs) == 0 {
		return
	}
	if err := wal.Truncate(0); err != nil {
		t.Fatal(err)
	}
	l, _, err := reportlog.OpenFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	data, _, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := reportlog.VerifySegment(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range replayed {
		if rec.ReportID != recs[i].ReportID {
			t.Fatalf("record %d: id %q comes back from the WAL as %q", i, recs[i].ReportID, rec.ReportID)
		}
	}
}
