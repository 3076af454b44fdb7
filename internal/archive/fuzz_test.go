package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/serve"
)

// seal wraps a payload in a valid envelope: magic, version, length and
// checksum all match, so Decode reaches the payload itself.
func seal(payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload))
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[len(magic):], Version)
	binary.LittleEndian.PutUint32(b[len(magic)+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[len(magic)+8:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzSnapshot feeds the archive's snapshot decoder the bytes a restart
// reads from disk: arbitrary bytes as a whole file, and the same bytes as a
// payload resealed in a valid envelope, so mutations reach the JSON behind
// the checksum. Seeds are the golden aggregate (testdata/snapshot_v1.json)
// and forced-HR and forced-OUE rounds. Decode must never panic; a snapshot
// it accepts must re-encode to bytes that decode and re-encode to the same
// bytes; and serve.FromSnapshot of its aggregate must return an engine or an
// error. Aggregates larger than the seeds' (more attributes, larger
// attributes, more grids) are not served, so a fuzzed size field cannot ask
// for unbounded memory.
func FuzzSnapshot(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/snapshot_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	var agg core.Snapshot
	if err := json.Unmarshal(golden, &agg); err != nil {
		f.Fatal(err)
	}
	seeds := []RoundSnapshot{{Round: 1, Reports: agg.N, Aggregate: agg}}
	for _, proto := range []fo.Protocol{fo.HR, fo.OUE} {
		ds := dataset.NewNormal().Generate(dataset.MixedSchema(2, 16, 1, 4), 400, 3)
		a, err := core.Collect(ds, core.Options{Strategy: core.OHG, Epsilon: 1, Seed: 5, ForceProtocol: &proto})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, RoundSnapshot{Round: 2, Reports: a.N(), Rejected: 3, Aggregate: a.Snapshot()})
	}
	maxAttrs, maxSize, maxGrids := 0, 0, 0
	for _, s := range seeds {
		maxAttrs = max(maxAttrs, len(s.Aggregate.Attributes))
		maxGrids = max(maxGrids, len(s.Aggregate.Grids))
		for _, a := range s.Aggregate.Attributes {
			maxSize = max(maxSize, a.Size)
		}
		b, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[headerLen:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, seal(data)} {
			snap, err := Decode(file)
			if err != nil {
				continue
			}
			b1, err := Encode(snap)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			back, err := Decode(b1)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			b2, err := Encode(back)
			if err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("snapshot changed across a decode: %v\n%s\n%s", err, b1, b2)
			}
			a := snap.Aggregate
			if len(a.Attributes) > maxAttrs || len(a.Grids) > maxGrids {
				continue
			}
			small := true
			for _, at := range a.Attributes {
				small = small && at.Size <= maxSize
			}
			if small {
				if eng, err := serve.FromSnapshot(a); err == nil && eng == nil {
					t.Fatal("FromSnapshot returned neither an engine nor an error")
				}
			}
		}
	})
}
