package reportlog

import (
	"os"
	"reflect"
	"testing"
)

// TestAppendBatchReplaysLikeSingles pins the batch append's on-disk
// compatibility: a batch-written log replays record-for-record identical to
// a single-append log of the same records, including IDs that need JSON
// escaping (which take the fallback encoder).
func TestAppendBatchReplaysLikeSingles(t *testing.T) {
	recs := []Record{
		ReportRecord("plain-hex-0123", 0, "OLH", 3, 42),
		ReportRecord("", 1, "GRR", 0, 0), // empty id: still a legal record here
		ReportRecord(`needs "escaping"\and`+string(rune(0x01)), 2, "OUE", 7, 9),
		ReportRecord("unicode-α-β", 1, "OLH", 2, 77),
		FinalizeRecord(4, 0),
	}

	batchPath := tmpLog(t)
	lb, _, err := Open(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}

	singlePath := tmpLog(t)
	ls, _, err := Open(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := ls.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	_, fromBatch, err := Open(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	_, fromSingles, err := Open(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBatch, fromSingles) {
		t.Fatalf("batch replay %+v != single replay %+v", fromBatch, fromSingles)
	}
	if !reflect.DeepEqual(fromBatch, recs) {
		t.Fatalf("replay %+v != appended %+v", fromBatch, recs)
	}
}

// TestAppendBatchAdvancesPos pins that Pos moves by whole frames so WAL
// shipping (which reads [from, Pos)) serves complete records after a batch.
func TestAppendBatchAdvancesPos(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := []Record{
		ReportRecord("a", 0, "GRR", 1, 0),
		ReportRecord("b", 1, "OLH", 2, 5),
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	data, pos, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != l.Pos() || int64(len(data)) != pos {
		t.Fatalf("ReadFrom end %d, Pos %d, data %d bytes", pos, l.Pos(), len(data))
	}
	parsed, err := VerifySegment(data)
	if err != nil {
		t.Fatalf("batch-appended bytes fail strict verification: %v", err)
	}
	if !reflect.DeepEqual(parsed, recs) {
		t.Fatalf("verified %+v, want %+v", parsed, recs)
	}
}

// TestAppendBatchTornMidWrite pins the crash contract: a batch torn
// mid-write replays its whole-record prefix and drops the tear — exactly
// the single-append behavior, so a retried frame (same idempotency keys)
// re-ingests exactly-once.
func TestAppendBatchTornMidWrite(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	warm := []Record{ReportRecord("w0", 0, "GRR", 1, 0)}
	if err := l.AppendBatch(warm); err != nil {
		t.Fatal(err)
	}
	warmEnd := l.Pos()
	batch := []Record{
		ReportRecord("b0", 0, "GRR", 1, 0),
		ReportRecord("b1", 1, "OLH", 2, 5),
		ReportRecord("b2", 2, "OUE", 3, 6),
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the file inside the batch's third record — the shape a crash
	// mid-Write leaves behind.
	var twoRecs []byte
	for i := range batch[:2] {
		twoRecs, err = appendFramedRecord(twoRecs, &batch[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	tearAt := warmEnd + int64(len(twoRecs)) + 7
	if err := os.Truncate(path, tearAt); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := []Record{warm[0], batch[0], batch[1]}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("after tear replayed %+v, want %+v", recs, want)
	}
	if l2.Pos() != warmEnd+int64(len(twoRecs)) {
		t.Fatalf("tear not truncated: pos %d, want %d", l2.Pos(), warmEnd+int64(len(twoRecs)))
	}
}

// TestAppendBatchEmpty is a no-op, not an error: a frame whose every report
// was a duplicate appends nothing.
func TestAppendBatchEmpty(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if l.Pos() != 0 {
		t.Fatalf("empty batch moved pos to %d", l.Pos())
	}
}
