package wire

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
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

// shardStateSeeds builds shard-state messages the way state_test.go does:
// one grid each of GRR, OLH and OUE counts, plus an SPL message, a
// longitudinal one and an HR one, so every optional field is present in
// some seed.
func shardStateSeeds(tb testing.TB) []ShardStateMessage {
	tb.Helper()
	const eps, L = 1.1, 16
	r := fo.NewRand(43)
	grr, olh, oue := fo.NewGRRAggregator(eps, L), fo.NewOLHAggregator(eps, L), fo.NewOUEAggregator(eps, L)
	hr := fo.NewHRAggregator(eps, L)
	gc, _ := fo.NewGRRClient(eps, L)
	oc, _ := fo.NewOLHClient(eps, L)
	uc, _ := fo.NewOUEClient(eps, L)
	hc, _ := fo.NewHRClient(eps, L)
	for i := 0; i < 40; i++ {
		x, _ := gc.Perturb(i%L, r)
		grr.Add(x)
		o, _ := oc.Perturb(i%L, r)
		olh.Add(o)
		u, _ := uc.Perturb(i%L, r)
		oue.Add(u)
		h, _ := hc.Perturb(i%L, r)
		hr.Add(h)
	}
	var states []fo.PartialState
	for _, agg := range []interface {
		ExportState() (fo.PartialState, error)
	}{grr, olh, oue, hr} {
		st, err := agg.ExportState()
		if err != nil {
			tb.Fatal(err)
		}
		states = append(states, st)
	}
	long := &fo.Longitudinal{EpsPerm: 2.2, Eps1: eps}
	return []ShardStateMessage{
		NewShardStateMessage("shard-0", 1, eps, fo.ModeFELIP, nil, 0, 0, states[:1]),
		NewShardStateMessage("shard-0", 1, eps, fo.ModeFELIP, nil, 0, 0, states[1:2]),
		NewShardStateMessage("shard-0", 1, eps, fo.ModeFELIP, nil, 0, 0, states[2:3]),
		NewShardStateMessage("s1", 2, eps, fo.ModeFELIP, nil, 1, 0, states[:3]),
		NewShardStateMessage("s2", 3, eps, fo.ModeSPL, nil, 2, 7, states[:2]),
		NewShardStateMessage("s3", 4, eps, fo.ModeFELIP, long, 0, 0, states[:1]),
		NewShardStateMessage("s4", 5, eps, fo.ModeFELIP, nil, 3, 0, states[3:]),
	}
}

// FuzzShardState feeds arbitrary JSON to the shard-state message a
// coordinator pulls and merges, seeded with shardStateSeeds: each input as
// given, and once more with its checksum recomputed, so mutations reach the
// fields behind the checksum. Verify and ParseGridStates must never panic,
// and a message that verifies and decodes must keep its checksum when rebuilt
// by NewShardStateMessage from its own fields and states: the message is a
// function of the sealed round, which is what lets a coordinator re-pull it.
func FuzzShardState(f *testing.F) {
	for _, msg := range shardStateSeeds(f) {
		b, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ShardStateMessage
		if json.Unmarshal(data, &m) != nil {
			return
		}
		for _, resealed := range []bool{false, true} {
			if resealed {
				m.Checksum = m.Sum()
			}
			verr := m.Verify()
			states, serr := ParseGridStates(m.Grids, m.Epsilon)
			if verr != nil || serr != nil {
				continue
			}
			mode, _ := fo.ParseReportMode(m.Mode) // Verify proved the mode parses
			again := NewShardStateMessage(m.ShardID, m.Round, m.Epsilon, mode, m.Longitudinal, m.Rejected, m.WALReplayed, states)
			if again.Checksum != m.Checksum {
				t.Fatalf("verified message %+v rebuilds with checksum %08x, claims %08x", m, again.Checksum, m.Checksum)
			}
		}
	})
}
