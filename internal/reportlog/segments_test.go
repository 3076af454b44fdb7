package reportlog

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSegmentsNaming(t *testing.T) {
	s := NewSegments("/tmp/round.wal")
	if s.Base() != "/tmp/round.wal" {
		t.Fatalf("base = %q", s.Base())
	}
	if s.Path(1) != "/tmp/round.wal" {
		t.Fatalf("round 1 path = %q", s.Path(1))
	}
	if s.Path(3) != "/tmp/round.wal.r3" {
		t.Fatalf("round 3 path = %q", s.Path(3))
	}
}

func TestSegmentsExistingAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s := NewSegments(filepath.Join(dir, "round.wal"))

	appendOne := func(round int, id string) {
		t.Helper()
		l, _, err := s.Open(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(Record{Type: TypeReport, ReportID: id, Proto: "GRR"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, round := range []int{1, 2, 3, 5} { // gap at 4, like a truncated chain
		appendOne(round, "u1")
	}
	// Foreign files in the same directory are not segments.
	if err := os.WriteFile(filepath.Join(dir, "round.wal.bak"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "other.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.Existing()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 5 {
		t.Fatalf("existing = %v, want [1 2 3 5]", got)
	}

	removed, err := s.RemoveIf(func(round int) bool { return round <= 3 })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 || removed[0] != 1 || removed[1] != 2 || removed[2] != 3 {
		t.Fatalf("removed = %v, want [1 2 3]", removed)
	}
	got, err = s.Existing()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("existing after truncate = %v, want [5]", got)
	}
	// Idempotent: re-running the same removal removes nothing.
	removed, err = s.RemoveIf(func(round int) bool { return round <= 3 })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("second truncate removed %v", removed)
	}
	// The surviving tail still replays.
	l, recs, err := s.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || recs[0].ReportID != "u1" {
		t.Fatalf("tail records = %+v", recs)
	}
}
