package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"felip/internal/core"
	"felip/internal/fo"
)

func sampleModeBatch(n int) []BatchReport {
	out := sampleBatch(n)
	for i := range out {
		out[i].Attr = (i * 7) % 5
	}
	return out
}

func TestFrameModeRoundTrip(t *testing.T) {
	for _, mode := range []fo.ReportMode{fo.ModeSPL, fo.ModeRSFD} {
		reports := sampleModeBatch(201)
		frame, err := EncodeFrameMode(mode, reports)
		if err != nil {
			t.Fatalf("%v: EncodeFrameMode: %v", mode, err)
		}
		if !bytes.HasPrefix(frame, []byte(FrameMagicV2)) {
			t.Fatalf("%v: frame does not start with %q", mode, FrameMagicV2)
		}
		if got, want := len(frame), FrameSizeMode(mode, reports); got != want {
			t.Fatalf("%v: frame is %d bytes, FrameSizeMode says %d", mode, got, want)
		}
		if got := FrameReportCount(frame); got != len(reports) {
			t.Fatalf("%v: FrameReportCount = %d, want %d", mode, got, len(reports))
		}
		var r FrameReader
		n, err := r.Reset(frame)
		if err != nil {
			t.Fatalf("%v: Reset: %v", mode, err)
		}
		if n != len(reports) {
			t.Fatalf("%v: frame claims %d reports, encoded %d", mode, n, len(reports))
		}
		if r.Mode != mode {
			t.Fatalf("frame decodes as mode %v, want %v", r.Mode, mode)
		}
		i := 0
		for r.Next() {
			if got, want := string(r.ID), reports[i].ID; got != want {
				t.Fatalf("%v report %d: id %q, want %q", mode, i, got, want)
			}
			if r.Report != reports[i].Report {
				t.Fatalf("%v report %d: %+v, want %+v", mode, i, r.Report, reports[i].Report)
			}
			if r.Attr != reports[i].Attr {
				t.Fatalf("%v report %d: attr %d, want %d", mode, i, r.Attr, reports[i].Attr)
			}
			i++
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%v: Err after iteration: %v", mode, err)
		}
		if i != len(reports) {
			t.Fatalf("%v: iterated %d reports, want %d", mode, i, len(reports))
		}
	}
}

// A FELIP batch must encode to the identical v1 bytes whichever API builds
// it: the mode refactor may not disturb a single bit of the default path.
func TestFrameModeFELIPByteIdentical(t *testing.T) {
	reports := sampleModeBatch(64)
	v1, err := EncodeFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	viaMode, err := EncodeFrameMode(fo.ModeFELIP, reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1, viaMode) {
		t.Fatalf("EncodeFrameMode(FELIP) diverged from EncodeFrame:\n  v1  %x\n  got %x", v1, viaMode)
	}
	if got, want := FrameSizeMode(fo.ModeFELIP, reports), len(v1); got != want {
		t.Fatalf("FrameSizeMode(FELIP) = %d, want %d", got, want)
	}
}

// goldenV1Frame is a FELIPBF1 frame recorded before the mode refactor: three
// reports, ids dev-a/dev-b/dev-c, groups 0/1/2, protocols GRR/OLH/GRR,
// values 3/5/0, seeds 0/0x0123456789abcdef/7. Decoding it must keep working
// forever, and must answer FELIP mode with no attribute.
const goldenV1Frame = "46454c49504246310300000045000000111635fb056465762d61000000000003000000000000" +
	"0000000000056465762d62010100000005000000efcdab8967452301056465762d6300020000" +
	"00000000000700000000000000"

func TestFrameV1GoldenDecodesAsFELIP(t *testing.T) {
	frame, err := hex.DecodeString(goldenV1Frame)
	if err != nil {
		t.Fatal(err)
	}
	want := []BatchReport{
		{ID: "dev-a", Report: core.Report{Group: 0, Proto: fo.GRR, Value: 3, Seed: 0}},
		{ID: "dev-b", Report: core.Report{Group: 1, Proto: fo.OLH, Value: 5, Seed: 0x0123456789abcdef}},
		{ID: "dev-c", Report: core.Report{Group: 2, Proto: fo.GRR, Value: 0, Seed: 7}},
	}
	if got := FrameReportCount(frame); got != len(want) {
		t.Fatalf("FrameReportCount = %d, want %d", got, len(want))
	}
	var r FrameReader
	n, err := r.Reset(frame)
	if err != nil {
		t.Fatalf("Reset on recorded v1 frame: %v", err)
	}
	if n != len(want) {
		t.Fatalf("recorded frame claims %d reports, want %d", n, len(want))
	}
	if r.Mode != fo.ModeFELIP {
		t.Fatalf("recorded v1 frame decodes as mode %v, want FELIP", r.Mode)
	}
	for i := 0; r.Next(); i++ {
		if string(r.ID) != want[i].ID || r.Report != want[i].Report {
			t.Fatalf("record %d: id=%q rep=%+v, want id=%q rep=%+v",
				i, r.ID, r.Report, want[i].ID, want[i].Report)
		}
		if r.Attr != -1 {
			t.Fatalf("record %d: v1 record answered attr %d, want -1 (none)", i, r.Attr)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// And re-encoding the same reports today still produces the recorded
	// bytes: the v1 format is pinned, not just still readable.
	reencoded, err := EncodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(reencoded) != goldenV1Frame {
		t.Fatalf("v1 encoding drifted:\n  want %s\n  got  %x", goldenV1Frame, reencoded)
	}
}

func TestFrameModeEncodeRefusals(t *testing.T) {
	if _, err := EncodeFrameMode(fo.ModeSPL, nil); err == nil {
		t.Fatal("empty SPL frame encoded")
	}
	bad := sampleModeBatch(2)
	bad[1].Attr = MaxFrameAttr + 1
	if _, err := EncodeFrameMode(fo.ModeSPL, bad); err == nil || !strings.Contains(err.Error(), "attr") {
		t.Fatalf("oversized attr accepted: %v", err)
	}
	neg := sampleModeBatch(2)
	neg[0].Attr = -1
	if _, err := EncodeFrameMode(fo.ModeRSFD, neg); err == nil || !strings.Contains(err.Error(), "attr") {
		t.Fatalf("negative attr accepted: %v", err)
	}
	if _, err := EncodeFrameMode(fo.ReportMode(9), sampleModeBatch(1)); err == nil {
		t.Fatal("unknown mode encoded")
	}
}

func TestFrameModeUnknownModeByteRefused(t *testing.T) {
	frame, err := EncodeFrameMode(fo.ModeSPL, sampleModeBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	frame[len(FrameMagicV2)] = 9 // the mode byte
	var r FrameReader
	if _, err := r.Reset(frame); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("unknown mode byte accepted: %v", err)
	}
}

// goldenV2Frame is a FELIPBF2 SPL frame recorded before the v1 and v2
// encoders shared one loop: ids dev-a/dev-b/dev-c, groups 0/1/2, protocols
// GRR/OLH/GRR, values 3/5/0, seeds 0/0x0123456789abcdef/7, attrs 0/1/300.
const goldenV2Frame = "46454c495042463201030000004b00000070a3dd19056465762d61000000000003000000000000" +
	"00000000000000056465762d62010100000005000000efcdab89674523010100056465762d630002" +
	"0000000000000007000000000000002c01"

func goldenV2Reports() []BatchReport {
	return []BatchReport{
		{ID: "dev-a", Attr: 0, Report: core.Report{Group: 0, Proto: fo.GRR, Value: 3, Seed: 0}},
		{ID: "dev-b", Attr: 1, Report: core.Report{Group: 1, Proto: fo.OLH, Value: 5, Seed: 0x0123456789abcdef}},
		{ID: "dev-c", Attr: 300, Report: core.Report{Group: 2, Proto: fo.GRR, Value: 0, Seed: 7}},
	}
}

func TestFrameV2GoldenPinned(t *testing.T) {
	frame, err := hex.DecodeString(goldenV2Frame)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenV2Reports()
	var r FrameReader
	n, err := r.Reset(frame)
	if err != nil {
		t.Fatalf("Reset on recorded v2 frame: %v", err)
	}
	if n != len(want) || r.Mode != fo.ModeSPL {
		t.Fatalf("recorded frame: %d reports in mode %v, want %d in SPL", n, r.Mode, len(want))
	}
	for i := 0; r.Next(); i++ {
		if string(r.ID) != want[i].ID || r.Report != want[i].Report || r.Attr != want[i].Attr {
			t.Fatalf("record %d: id=%q rep=%+v attr=%d, want id=%q rep=%+v attr=%d",
				i, r.ID, r.Report, r.Attr, want[i].ID, want[i].Report, want[i].Attr)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	reencoded, err := EncodeFrameMode(fo.ModeSPL, want)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(reencoded) != goldenV2Frame {
		t.Fatalf("v2 encoding drifted:\n  want %s\n  got  %x", goldenV2Frame, reencoded)
	}
	// RS+FD differs from SPL in the mode byte alone.
	rsfd, err := EncodeFrameMode(fo.ModeRSFD, want)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(FrameMagicV2)] = byte(fo.ModeRSFD)
	if !bytes.Equal(rsfd, frame) {
		t.Fatalf("RS+FD frame is not the SPL golden with mode byte %d:\n  want %x\n  got  %x", fo.ModeRSFD, frame, rsfd)
	}
}

// FrameSizeMode must predict every recorded frame's length exactly: it is
// what a batcher charges its wire-byte accounting.
func TestFrameSizeModeMatchesGoldens(t *testing.T) {
	cases := []struct {
		name    string
		golden  string
		mode    fo.ReportMode
		reports []BatchReport
	}{
		{"v1", goldenV1Frame, fo.ModeFELIP, []BatchReport{
			{ID: "dev-a", Report: core.Report{Group: 0, Proto: fo.GRR, Value: 3, Seed: 0}},
			{ID: "dev-b", Report: core.Report{Group: 1, Proto: fo.OLH, Value: 5, Seed: 0x0123456789abcdef}},
			{ID: "dev-c", Report: core.Report{Group: 2, Proto: fo.GRR, Value: 0, Seed: 7}},
		}},
		{"v1 HR", goldenHRFrame, fo.ModeFELIP, hrFrameReports()},
		{"v2 HR", goldenHRModeFrame, fo.ModeSPL, []BatchReport{
			{ID: "dev-a", Attr: 2, Report: core.Report{Group: 0, Proto: fo.HR, Value: 7, Seed: 1}},
		}},
		{"v2", goldenV2Frame, fo.ModeSPL, goldenV2Reports()},
	}
	for _, tc := range cases {
		if got, want := FrameSizeMode(tc.mode, tc.reports), len(tc.golden)/2; got != want {
			t.Errorf("%s golden: FrameSizeMode = %d, recorded frame is %d bytes", tc.name, got, want)
		}
	}
}
