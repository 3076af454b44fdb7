package reportlog

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSegment feeds arbitrary bytes to the two readers of a WAL segment,
// seeded with segments of the record kinds the log writes: one-shot reports
// (Append and AppendBatch), mode-tagged and longitudinal reports, and
// finalize markers. Each input runs once as given and once with every
// frame's checksum recomputed, so mutations reach the JSON records instead
// of stopping at the CRC. Neither reader may panic; VerifySegment must accept
// an input exactly when Open keeps every byte of it, and then return the
// same records; and reopening what Open kept must return the same records
// and the same end offset.
func FuzzSegment(f *testing.F) {
	dir := f.TempDir()
	for i, recs := range [][]Record{
		{ReportRecord("dev-1", 0, "GRR", 3, 0), ReportRecord("dev-2", 4, "OLH", 17, 9001), FinalizeRecord(2, 0)},
		{ReportRecordMode("dev-3", 1, "GRR", 2, 0, "SPL"), ReportRecordMode("dev-4", 2, "HR", 5, 77, "RS+FD")},
		{ReportRecordLongitudinal("dev-5", 3, "GRR", 1, 0), FinalizeRecord(1, 3)},
		{FinalizeRecord(0, 0)},
	} {
		path := filepath.Join(dir, "seed.wal")
		os.Remove(path)
		l, _, err := Open(path)
		if err != nil {
			f.Fatal(err)
		}
		// Alternate the two writers: their frames must read back alike.
		if i%2 == 0 {
			err = l.AppendBatch(recs)
		} else {
			for _, rec := range recs {
				if err = l.Append(rec); err != nil {
					break
				}
			}
		}
		if err != nil {
			f.Fatal(err)
		}
		l.Close()
		seg, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		f.Add(seg[:len(seg)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegment(t, data)
		checkSegment(t, resealed(data))
	})
}

// checkSegment runs the reader properties of FuzzSegment on one input.
func checkSegment(t *testing.T, data []byte) {
	file := &memFile{data: append([]byte(nil), data...)}
	kept, recs := reopen(t, file)
	verified, err := VerifySegment(data)
	if (err == nil) != (kept == int64(len(data))) {
		t.Fatalf("VerifySegment error %v, but Open kept %d of %d bytes", err, kept, len(data))
	}
	if err == nil && !reflect.DeepEqual(verified, recs) {
		t.Fatalf("VerifySegment returned %+v, Open %+v", verified, recs)
	}
	again, recsAgain := reopen(t, file)
	if again != kept || !reflect.DeepEqual(recsAgain, recs) {
		t.Fatalf("reopen kept %d bytes and %d records, first open %d and %d", again, len(recsAgain), kept, len(recs))
	}
}

// reopen opens the log over file and returns its end offset and records.
func reopen(t *testing.T, file *memFile) (int64, []Record) {
	l, recs, err := OpenFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return l.Pos(), recs
}

// memFile is an in-memory File, so a fuzz run pays no fsync.
type memFile struct {
	data []byte
	off  int
}

func (m *memFile) Read(p []byte) (int, error) {
	if m.off >= len(m.data) {
		return 0, io.EOF
	}
	n := copy(p, m.data[m.off:])
	m.off += n
	return n, nil
}

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data[:m.off], p...)
	m.off += len(p)
	return len(p), nil
}

func (m *memFile) Seek(off int64, _ int) (int64, error) { m.off = int(off); return off, nil }
func (m *memFile) Truncate(size int64) error            { m.data = m.data[:size]; return nil }
func (m *memFile) Sync() error                          { return nil }
func (m *memFile) Close() error                         { return nil }

// resealed returns a copy of data in which every frame whose claimed length
// fits carries the checksum of its payload.
func resealed(data []byte) []byte {
	b := append([]byte(nil), data...)
	for at := 0; len(b)-at >= headerLen; {
		n := int(binary.BigEndian.Uint32(b[at:]))
		if n == 0 || n > len(b)-at-headerLen {
			break
		}
		binary.BigEndian.PutUint32(b[at+4:], crc32.ChecksumIEEE(b[at+headerLen:at+headerLen+n]))
		at += headerLen + n
	}
	return b
}
