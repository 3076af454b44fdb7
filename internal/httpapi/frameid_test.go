package httpapi

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/wire"
)

// TestFrameIDsSurviveRestart: a frame id that is not valid UTF-8 would be
// logged under another id, because the WAL writes ids as JSON strings and
// the encoder replaces invalid bytes with U+FFFD. Two such ids then collide
// on restart and the WAL no longer replays; one such id is counted again
// when retried after a restart. The frame must be refused instead, so a
// restart replays exactly what was counted and a retry counts nothing new.
func TestFrameIDsSurviveRestart(t *testing.T) {
	for _, ids := range [][]string{{"a\xff", "a\xfe"}, {"b\xff"}} {
		t.Run(fmt.Sprintf("%q", ids), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "round.wal")
			srv, ts, cl := durableServer(t, path, 100)
			frame := forgeFrameIDs(t, srv.cur.col.Specs(), ids)
			// Accepted or refused, what was counted must survive a restart.
			_, _, _ = srv.IngestFrame(frame)
			st, err := cl.Status(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ts.Close()
			srv.Close()

			srv, ts, cl = durableServer(t, path, 100) // fails if the WAL no longer replays
			defer ts.Close()
			defer srv.Close()
			_, _, _ = srv.IngestFrame(frame) // a retry must count nothing new
			after, err := cl.Status(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if after.Reports != st.Reports {
				t.Fatalf("reports %d before the restart, %d after a retry", st.Reports, after.Reports)
			}
		})
	}
}

// forgeFrameIDs encodes a frame of plan-valid reports under the given ids,
// which the encoder refuses, by encoding placeholders of the same lengths
// and patching the bytes under a recomputed checksum.
func forgeFrameIDs(t *testing.T, specs []core.GridSpec, ids []string) []byte {
	t.Helper()
	batch := make([]wire.BatchReport, len(ids))
	for i, id := range ids {
		p := validProbe(specs, fo.ModeFELIP, fmt.Sprintf("%0*d", len(id), i), 0)
		if p.rep.Proto == fo.HR {
			t.Fatal("forgeFrameIDs patches 17-byte record tails; group 0 runs HR")
		}
		batch[i] = wire.BatchReport{ID: p.id, Report: p.rep}
	}
	frame, err := wire.EncodeFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 20 // "FELIPBF1" | count | paylen | crc
	off := hdr
	for _, id := range ids {
		off += 1 + copy(frame[off+1:], id) + 17
	}
	binary.LittleEndian.PutUint32(frame[16:], crc32.ChecksumIEEE(frame[hdr:]))
	return frame
}
