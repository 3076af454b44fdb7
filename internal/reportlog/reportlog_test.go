package reportlog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "round.wal")
}

func appendReports(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		rec := ReportRecord("id-"+string(rune('a'+i%26))+"-"+itoa(i), i%5, "GRR", i, uint64(i))
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	appendReports(t, l, 0, 100)
	if err := l.Append(FinalizeRecord(100, 0)); err != nil {
		t.Fatal(err)
	}
	pos := l.Pos()
	if pos <= 0 {
		t.Fatalf("pos = %d", pos)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 101 {
		t.Fatalf("replayed %d records, want 101", len(recs))
	}
	if l2.Pos() != pos {
		t.Fatalf("reopened pos %d, want %d", l2.Pos(), pos)
	}
	for i := 0; i < 100; i++ {
		r := recs[i]
		if r.Type != TypeReport || r.Group != i%5 || r.Value != i || r.Seed != uint64(i) || r.Proto != "GRR" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	last := recs[100]
	if last.Type != TypeFinalize || last.Reports != 100 {
		t.Fatalf("finalize record %+v", last)
	}
}

// A crash can tear the final record; replay must drop exactly that record and
// leave the log appendable.
func TestTornTailRecovery(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendReports(t, l, 0, 10)
	full := l.Pos()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, chop := range []int64{1, 5, headerLen, full/2 + 3} {
		if err := os.Truncate(path, full-chop); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) >= 10 {
			t.Fatalf("chop %d: replayed %d records from a torn log", chop, len(recs))
		}
		// The torn tail must be gone: appending and reopening round-trips.
		appendReports(t, l, len(recs), 10)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, recs, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 10 {
			t.Fatalf("chop %d: after repair replayed %d records, want 10", chop, len(recs))
		}
		full = l.Pos()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A flipped byte invalidates its record's checksum; everything from that
// record on is discarded (nothing after a corrupt record can be trusted).
func TestChecksumCatchesCorruption(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendReports(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) >= 10 {
		t.Fatalf("replayed %d records from a corrupt log", len(recs))
	}
	for i, r := range recs {
		if r.Value != i {
			t.Fatalf("surviving prefix out of order: record %d = %+v", i, r)
		}
	}
}

// Trailing garbage (a crash mid-header, or junk) must not be parsed.
func TestGarbageTailIgnored(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendReports(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(ReportRecord(itoa(w*per+i), w, "OLH", i, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per)
	}
	ids := make(map[string]bool, len(recs))
	for _, r := range recs {
		if ids[r.ReportID] {
			t.Fatalf("duplicate record %q after concurrent appends", r.ReportID)
		}
		ids[r.ReportID] = true
	}
}
