package reportlog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestLongitudinalRecordWriterParity pins the hand-rolled batch writer against
// encoding/json for longitudinal records: the bytes it emits must parse back
// to the identical Record, and a batch-written log must replay exactly like a
// single-append log of the same records.
func TestLongitudinalRecordWriterParity(t *testing.T) {
	recs := []Record{
		ReportRecordLongitudinal("dev-0-r1", 0, "GRR", 3, 0),
		ReportRecordLongitudinal("dev-1-r1", 2, "GRR", 0, 7),
		ReportRecord("one-shot", 1, "GRR", 5, 0),
		FinalizeRecord(3, 0),
	}

	var buf []byte
	var err error
	for i := range recs {
		buf, err = appendFramedRecord(buf, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
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

// TestLongitudinalFlagRoundTripsAndStaysOffOneShot pins the two JSON
// contracts: a longitudinal record's payload parses back with the flag set,
// and a one-shot record's payload contains no trace of the field (v1
// byte-identity).
func TestLongitudinalFlagRoundTripsAndStaysOffOneShot(t *testing.T) {
	long := ReportRecordLongitudinal("dev-3-r2", 1, "GRR", 4, 0)
	payload, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Record
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Longitudinal {
		t.Fatal("longitudinal flag lost in JSON round trip")
	}

	oneShot := ReportRecordMode("dev-4", 0, "GRR", 2, 0, "")
	payload, err = json.Marshal(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, []byte("longitudinal")) {
		t.Fatalf("one-shot record JSON mentions longitudinal: %s", payload)
	}
	buf, err := appendFramedRecord(nil, &oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf, []byte("longitudinal")) {
		t.Fatalf("one-shot hand-rolled frame mentions longitudinal: %s", buf[headerLen:])
	}
}
