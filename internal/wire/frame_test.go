package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/fo"
)

func sampleBatch(n int) []BatchReport {
	out := make([]BatchReport, n)
	for i := range out {
		proto := fo.GRR
		if i%2 == 1 {
			proto = fo.OLH
		}
		out[i] = BatchReport{
			ID: fmt.Sprintf("device-%04d", i),
			Report: core.Report{
				Group: i % 3,
				Proto: proto,
				Value: i % 7,
				Seed:  uint64(i) * 0x9e3779b97f4a7c15,
			},
		}
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	reports := sampleBatch(257)
	frame, err := EncodeFrame(reports)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	var r FrameReader
	n, err := r.Reset(frame)
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if n != len(reports) {
		t.Fatalf("frame claims %d reports, encoded %d", n, len(reports))
	}
	i := 0
	for r.Next() {
		if got, want := string(r.ID), reports[i].ID; got != want {
			t.Fatalf("report %d: id %q, want %q", i, got, want)
		}
		if r.Report != reports[i].Report {
			t.Fatalf("report %d: %+v, want %+v", i, r.Report, reports[i].Report)
		}
		i++
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after iteration: %v", err)
	}
	if i != len(reports) {
		t.Fatalf("iterated %d reports, want %d", i, len(reports))
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	frame, err := EncodeFrame(sampleBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	var r FrameReader

	flip := append([]byte(nil), frame...)
	flip[len(flip)-3] ^= 0xFF
	if _, err := r.Reset(flip); err == nil {
		t.Fatal("flipped payload byte accepted")
	}

	torn := frame[:len(frame)-5]
	if _, err := r.Reset(torn); err == nil {
		t.Fatal("torn frame accepted")
	}

	badMagic := append([]byte(nil), frame...)
	copy(badMagic, "XXXXXXXX")
	if _, err := r.Reset(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}

	hostile := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(hostile[len(FrameMagic)+4:], 1<<31)
	if _, err := r.Reset(hostile); err == nil {
		t.Fatal("hostile payload length accepted")
	}

	if _, err := r.Reset(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestFrameRejectsMalformedRecords(t *testing.T) {
	// A frame whose envelope checksum holds but whose record stream lies:
	// hand-build a payload with a bad protocol byte.
	reports := sampleBatch(2)
	frame, err := EncodeFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	// Protocol byte of record 0 sits right after idlen + id.
	protoOff := frameHeaderLen + 1 + len(reports[0].ID)
	bad := append([]byte(nil), frame...)
	bad[protoOff] = 0x7F
	// Re-stamp the checksum so only the record is wrong, not the envelope.
	binary.LittleEndian.PutUint32(bad[len(FrameMagic)+8:], crc32OfPayload(bad))
	var r FrameReader
	if _, err := r.Reset(bad); err != nil {
		t.Fatalf("envelope should verify: %v", err)
	}
	if r.Next() {
		t.Fatal("malformed record iterated")
	}
	if r.Err() == nil {
		t.Fatal("malformed record left no error")
	}
}

func crc32OfPayload(frame []byte) uint32 {
	return crc32.ChecksumIEEE(frame[frameHeaderLen:])
}

func TestFrameEncodeRefusesIllegalReports(t *testing.T) {
	cases := []struct {
		name string
		br   BatchReport
	}{
		{"empty id", BatchReport{ID: "", Report: core.Report{Proto: fo.GRR}}},
		{"oversized id", BatchReport{ID: strings.Repeat("x", MaxReportIDLen+1), Report: core.Report{Proto: fo.GRR}}},
		{"negative group", BatchReport{ID: "a", Report: core.Report{Group: -1, Proto: fo.GRR}}},
		{"negative value", BatchReport{ID: "a", Report: core.Report{Value: -1, Proto: fo.GRR}}},
		{"unknown proto", BatchReport{ID: "a", Report: core.Report{Proto: fo.Protocol(9)}}},
	}
	for _, tc := range cases {
		if _, err := EncodeFrame([]BatchReport{tc.br}); err == nil {
			t.Errorf("%s: encoded", tc.name)
		}
	}
	if _, err := EncodeFrame(nil); err == nil {
		t.Error("empty batch encoded")
	}
}

func TestFrameReportCount(t *testing.T) {
	frame, err := EncodeFrame(sampleBatch(37))
	if err != nil {
		t.Fatal(err)
	}
	if got := FrameReportCount(frame); got != 37 {
		t.Fatalf("FrameReportCount = %d, want 37", got)
	}
	// A damaged payload still reports the header's claim; a destroyed header
	// reports 1.
	flip := append([]byte(nil), frame...)
	flip[len(flip)-1] ^= 0xFF
	if got := FrameReportCount(flip); got != 37 {
		t.Fatalf("FrameReportCount on damaged payload = %d, want 37", got)
	}
	if got := FrameReportCount([]byte("short")); got != 1 {
		t.Fatalf("FrameReportCount on garbage = %d, want 1", got)
	}
	hostile := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(hostile[len(FrameMagic):], 1<<30)
	if got := FrameReportCount(hostile); got != MaxFrameReports {
		t.Fatalf("FrameReportCount on hostile count = %d, want %d", got, MaxFrameReports)
	}
}

func TestFrameDecodeAllocs(t *testing.T) {
	reports := sampleBatch(512)
	frame, err := EncodeFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	var r FrameReader
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Reset(frame); err != nil {
			t.Fatal(err)
		}
		for r.Next() {
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("frame decode allocates %.1f times per 512-report frame, want 0", allocs)
	}
}

func TestFrameTrailingBytesRefused(t *testing.T) {
	frame, err := EncodeFrame(sampleBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	// Claim 2 reports but keep 3 records' bytes: the reader must notice the
	// payload does not end on the last claimed record.
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[len(FrameMagic):], 2)
	binary.LittleEndian.PutUint32(bad[len(FrameMagic)+8:], crc32OfPayload(bad))
	var r FrameReader
	if _, err := r.Reset(bad); err != nil {
		t.Fatalf("envelope should verify: %v", err)
	}
	n := 0
	for r.Next() {
		n++
	}
	if r.Err() == nil {
		t.Fatalf("trailing payload bytes accepted after %d reports", n)
	}
	if !bytes.Contains([]byte(r.Err().Error()), []byte("trailing")) {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

// BenchmarkEncodeFrame times EncodeFrame, the encoder the load generators
// use, on a 512-report FELIP batch of GRR and OLH records.
func BenchmarkEncodeFrame(b *testing.B) {
	reports := sampleBatch(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeFrame(reports)
		if err != nil {
			b.Fatal(err)
		}
		encodedFrame = frame
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reports)), "ns/report")
}

// encodedFrame keeps BenchmarkEncodeFrame's result live.
var encodedFrame []byte

// OUE's L-bit report has no (value, seed) pair, and no round can fold one:
// the frame encoder refuses it, a frame holding proto byte 2 is refused like
// one holding an unknown protocol byte, and a JSON report claiming "OUE"
// fails validation. Partial states keep OUE (TestShardStateWireMergeEquivalence).
func TestOUEReportsRefusedOnTheWire(t *testing.T) {
	oue := []BatchReport{{ID: "dev-o", Report: core.Report{Group: 0, Proto: fo.OUE, Value: 3, Seed: 5}, Attr: 0}}
	if _, err := EncodeFrame(oue); err == nil {
		t.Error("v1 encoder accepted an OUE report")
	}
	if _, err := EncodeFrameMode(fo.ModeSPL, oue); err == nil {
		t.Error("v2 encoder accepted an OUE report")
	}

	frame, err := EncodeFrame([]BatchReport{{ID: "dev-o", Report: core.Report{Group: 0, Proto: fo.GRR, Value: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 20 // "FELIPBF1" | count | paylen | crc
	frame[hdr+1+len("dev-o")] = byte(fo.OUE)
	binary.LittleEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(frame[hdr:]))
	var r FrameReader
	if _, err := r.Reset(frame); err != nil {
		t.Fatalf("resealed frame refused at its envelope: %v", err)
	}
	if r.Next() || r.Err() == nil {
		t.Errorf("decoder accepted an OUE record: %+v", r.Report)
	}

	msg := ReportMessage{ReportID: "dev-o", Group: 0, Proto: "OUE", Value: 3}
	if err := msg.Validate(); err == nil {
		t.Error("JSON report claiming OUE validated")
	}
	if _, err := msg.Report(); err == nil {
		t.Error("JSON report claiming OUE decoded")
	}
}
