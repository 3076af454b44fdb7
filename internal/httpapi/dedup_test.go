package httpapi

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/fo"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

// checkAgrees fails unless the index answers id as the map reference does.
func checkAgrees(t testing.TB, x *dedupIndex, ref map[string]packedKey, id []byte) {
	t.Helper()
	want, had := ref[string(id)]
	if got, ok := x.get(id); ok != had || got != want {
		t.Fatalf("get(%q) = %v, %v; reference has %v, %v", id, got, ok, want, had)
	}
	if x.len() != len(ref) {
		t.Fatalf("len() = %d, reference holds %d", x.len(), len(ref))
	}
}

// varintEdges holds 0, 2^32−1 and the values on each side of a uvarint
// width boundary (2^7k−1 and 2^7k) below 2^32.
var varintEdges = []uint32{0, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<32 - 1}

// randomKey draws a payload key whose fields often sit at the edges of the
// arena encoding: seed 0 and extreme nonzero seeds, and value and group at
// every uvarint width boundary.
func randomKey(rng *rand.Rand) packedKey {
	key := packedKey{seed: rng.Uint64(), value: rng.Uint32(), group: rng.Uint32()}
	switch rng.IntN(4) {
	case 0:
		key.seed = 0
	case 1:
		key.seed = []uint64{1, 1 << 63, ^uint64(0)}[rng.IntN(3)]
	}
	if rng.IntN(2) == 0 {
		key.value = varintEdges[rng.IntN(len(varintEdges))]
	}
	if rng.IntN(2) == 0 {
		key.group = varintEdges[rng.IntN(len(varintEdges))]
	}
	return key
}

// TestDedupIndexMatchesMap drives the index and a map through the same
// inserts — random ids of every legal length, ids sharing prefixes, ids that
// differ only in length, each under a key from randomKey — until every
// shard has grown several times, and requires get, put and len to agree
// after every step.
func TestDedupIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	x := newDedupIndex()
	ref := make(map[string]packedKey)
	var ids []string
	randomID := func() string {
		b := make([]byte, 1+rng.IntN(wire.MaxReportIDLen))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return string(b)
	}
	nextID := func() string {
		if len(ids) == 0 {
			return randomID()
		}
		old := ids[rng.IntN(len(ids))]
		var id string
		switch rng.IntN(5) {
		case 0:
			id = randomID()
		case 1: // shares a prefix with an earlier id
			id = old[:rng.IntN(len(old)+1)] + strconv.Itoa(rng.IntN(1000))
		case 2: // one byte longer
			id = old + "\x00"
		case 3: // one byte shorter, or a repeat
			id = old[:max(len(old)-1, 1)]
		default: // a device-style id
			id = "d" + strconv.Itoa(rng.IntN(1<<20))
		}
		return id[:min(len(id), wire.MaxReportIDLen)]
	}
	for range 300000 {
		id := []byte(nextID())
		checkAgrees(t, x, ref, id)
		if _, had := ref[string(id)]; !had {
			key := randomKey(rng)
			x.put(id, key)
			ref[string(id)] = key
			ids = append(ids, string(id))
		}
		checkAgrees(t, x, ref, id)
	}
	for i := range x.shards {
		if n := len(x.shards[i].slots); n < 4*dedupMinSlots {
			t.Fatalf("shard %d grew only to %d slots; the test must grow every shard several times", i, n)
		}
	}
	for _, id := range ids {
		checkAgrees(t, x, ref, []byte(id))
	}
}

// TestDedupIndexComparesBytesOnProbeMatch: two ids of one length whose
// hashes agree on the shard, the probe bits and the home slot look the same
// to every filter, so only the byte comparison tells them apart.
func TestDedupIndexComparesBytesOnProbeMatch(t *testing.T) {
	x := newDedupIndex()
	sig := func(id string) uint64 {
		h := maphash.Bytes(x.seed, []byte(id))
		return h>>40<<8 | h&(dedupMinSlots-1) // shard, probe bits, home slot
	}
	seen := make(map[uint64]string)
	var a, b string
	for i := 0; b == ""; i++ {
		id := fmt.Sprintf("c%08d", i)
		if prev, ok := seen[sig(id)]; ok {
			a, b = prev, id
		}
		seen[sig(id)] = id
	}
	ka, kb := packedKey{seed: 1}, packedKey{seed: 2}
	x.put([]byte(a), ka)
	if _, ok := x.get([]byte(b)); ok {
		t.Fatalf("%q found after storing only %q", b, a)
	}
	x.put([]byte(b), kb)
	if got, ok := x.get([]byte(a)); !ok || got != ka {
		t.Fatalf("get(%q) = %v, %v; want %v", a, got, ok, ka)
	}
	if got, ok := x.get([]byte(b)); !ok || got != kb {
		t.Fatalf("get(%q) = %v, %v; want %v", b, got, ok, kb)
	}
	// Both ids sit in one shard with identical probe bits.
	sh := &x.shards[maphash.Bytes(x.seed, []byte(a))>>(64-dedupShardBits)]
	var refs []uint64
	for _, ref := range sh.slots {
		if ref != 0 {
			refs = append(refs, ref&(1<<24-1))
		}
	}
	if len(refs) != 2 || refs[0] != refs[1] {
		t.Fatalf("shard holds probe bits %x; want two equal entries", refs)
	}
}

// TestDedupIndexLooksUpAnyLength: replay looks an id up before validating
// it, so a lookup of any length is a miss, never a panic.
func TestDedupIndexLooksUpAnyLength(t *testing.T) {
	x := newDedupIndex()
	x.put([]byte("x"), packedKey{})
	for _, n := range []int{0, wire.MaxReportIDLen + 1, 255, 256, 300, 1 << 16} {
		if _, ok := x.get(make([]byte, n)); ok {
			t.Errorf("a %d-byte id was found", n)
		}
	}
}

// FuzzDedupIndex decodes a sequence of operations from the input and runs
// them against the index and a map: the two always agree, and no input
// panics. Each operation is an opcode byte, a length byte and that many id
// bytes; an inserting operation then takes its key from the next 16 bytes
// (seed u64, value u32 and group u32, little-endian, zero-padded at the end
// of the input). Opcode bit 0 inserts the id, bit 1 inserts 200 ids derived
// from it (so short inputs still fill the index), and any other opcode only
// looks the id up. A table's first doubling needs 193 ids in one shard,
// beyond what an input reaches; TestDedupIndexMatchesMap covers growth.
func FuzzDedupIndex(f *testing.F) {
	key := func(seed uint64, value, group uint32) string {
		b := binary.LittleEndian.AppendUint64(nil, seed)
		b = binary.LittleEndian.AppendUint32(b, value)
		return string(binary.LittleEndian.AppendUint32(b, group))
	}
	f.Add([]byte("\x01\x03abc" + key(1, 3, 0) + "\x00\x03abc\x01\x04abcd" + key(1, 4, 1) +
		"\x02\x01z" + key(2, 1, 2) + "\x00\x02ab"))
	f.Add([]byte("\x03\x80" + string(make([]byte, 128)) + key(0, 0, 0) + "\x00\x81"))
	f.Add([]byte("\x01\x01a" + key(0, 1<<31, 1<<32-1) + "\x01\x01b" + key(1<<64-1, 1<<32-1, 1<<6) + "\x00\x01a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := newDedupIndex()
		ref := make(map[string]packedKey)
		put := func(id []byte, key packedKey) {
			if len(id) == 0 || len(id) > wire.MaxReportIDLen {
				return
			}
			if _, had := ref[string(id)]; !had {
				x.put(id, key)
				ref[string(id)] = key
			}
			checkAgrees(t, x, ref, id)
		}
		for len(data) >= 2 {
			op, n := data[0], min(int(data[1]), len(data)-2)
			id := data[2 : 2+n]
			data = data[2+n:]
			var key packedKey
			if op&3 != 0 {
				var kb [16]byte
				data = data[copy(kb[:], data):]
				key = packedKey{
					seed:  binary.LittleEndian.Uint64(kb[:8]),
					value: binary.LittleEndian.Uint32(kb[8:12]),
					group: binary.LittleEndian.Uint32(kb[12:]),
				}
			}
			switch {
			case op&1 != 0:
				put(id, key)
			case op&2 != 0:
				for i := range 200 {
					put(append(id[:n:n], byte(i), byte(op)), key)
				}
			default:
				checkAgrees(t, x, ref, id)
			}
		}
		for id := range ref {
			checkAgrees(t, x, ref, []byte(id))
		}
	})
}

// BenchmarkDedupIndex admits 5M device-style ids ("d" and a decimal, as the
// pipeline benchmark's devices send) in 512-id batches, as admission does:
// every get of a batch, then every put, each under an OLH-shaped key. It
// reports the time per id, the index's allocated bytes per entry, and the
// slowest and 99th-percentile batch. One iteration is the whole 5M ids, so
// run it with -benchtime 1x:
//
//	go test -run '^$' -bench BenchmarkDedupIndex -benchtime 1x ./internal/httpapi
func BenchmarkDedupIndex(b *testing.B) {
	const total, perBatch = 5_000_000, 512
	rng := rand.New(rand.NewPCG(24, 1))
	ids := make([][]byte, perBatch)
	keys := make([]packedKey, perBatch)
	var x *dedupIndex
	var busy time.Duration
	var batches []time.Duration
	for range b.N {
		x, busy, batches = newDedupIndex(), 0, batches[:0]
		for next := 0; next < total; next += perBatch {
			n := min(perBatch, total-next)
			for i := range n {
				ids[i] = strconv.AppendInt(append(ids[i][:0], 'd'), int64(next+i), 10)
				keys[i] = packedKey{seed: rng.Uint64(), value: rng.Uint32N(5), group: rng.Uint32N(34)<<8 | uint32(fo.OLH)}
			}
			start := time.Now()
			for _, id := range ids[:n] {
				if _, ok := x.get(id); ok {
					b.Fatalf("fresh id %q found", id)
				}
			}
			for i, id := range ids[:n] {
				x.put(id, keys[i])
			}
			d := time.Since(start)
			busy += d
			batches = append(batches, d)
		}
	}
	slices.Sort(batches)
	b.ReportMetric(float64(busy.Nanoseconds())/total, "ns/id")
	b.ReportMetric(float64(x.sizeBytes())/float64(x.len()), "B/entry")
	b.ReportMetric(float64(batches[len(batches)-1].Microseconds())/1e3, "worst-batch-ms")
	b.ReportMetric(float64(batches[len(batches)*99/100].Microseconds())/1e3, "p99-batch-ms")
}

// TestDedupRetryWithUnpackablePayloadIsConflict: a retry of a stored id with
// a group or value the packed key cannot hold never matches the stored
// report, which passed the plan: it is a conflict, as any other payload is.
// A frame cannot carry such a payload (the reader refuses a negative group
// or value, and a value travels as a u32), so those retries enter the
// admission a decoded frame takes; the JSON endpoint can carry a value of
// 2^40 itself.
func TestDedupRetryWithUnpackablePayloadIsConflict(t *testing.T) {
	srv, ts, cl := newAdmissionNode(t, fo.ModeFELIP)
	p := validProbe(srv.col.Specs(), fo.ModeFELIP, "dev-1", 0)
	if d := submitFrame(t, srv, p); d != wire.DispositionAccepted {
		t.Fatalf("first submission: disposition %d", d)
	}
	for _, mutate := range []func(*core.Report){
		func(r *core.Report) { r.Group = -1 },
		func(r *core.Report) { r.Value = 1 << 40 },
	} {
		rep := p.rep
		mutate(&rep)
		b := batch{subs: []submission{{id: []byte(p.id), rep: rep, attr: -1}}}
		srv.mu.Lock()
		_, err := srv.admitLocked(&b)
		srv.mu.Unlock()
		if err != nil || b.subs[0].disp != wire.DispositionConflict {
			t.Fatalf("retry with %+v: disposition %d, err %v; want %d", rep, b.subs[0].disp, err, wire.DispositionConflict)
		}
	}
	big := p
	big.rep.Value = 1 << 40
	if status := submitJSON(t, ts.URL, big); status != http.StatusConflict {
		t.Fatalf("JSON retry with value 2^40: status %d, want 409", status)
	}
	if d := submitFrame(t, srv, p); d != wire.DispositionDuplicate {
		t.Fatalf("verbatim retry: disposition %d, want duplicate", d)
	}
	if c := countersOf(t, cl); c.Reports != 1 || c.Rejected != 3 {
		t.Fatalf("reports=%d rejected=%d; want 1 counted and the 3 conflicts charged", c.Reports, c.Rejected)
	}
}

// freshFrames encodes count frames of perFrame plan-valid reports under ids
// no earlier frame used.
func freshFrames(t testing.TB, specs []core.GridSpec, count, perFrame int) [][]byte {
	t.Helper()
	frames := make([][]byte, count)
	batch := make([]wire.BatchReport, perFrame)
	for f := range frames {
		for i := range batch {
			n := f*perFrame + i
			p := validProbe(specs, fo.ModeFELIP, "d"+strconv.Itoa(n), n%len(specs))
			batch[i] = wire.BatchReport{ID: p.id, Report: p.rep}
		}
		var err error
		if frames[f], err = wire.EncodeFrame(batch); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// TestIngestFrameAllocsPerReport gates the durable frame path's steady-state
// allocations: at most 4 per report over frames of fresh ids (the accepted
// id's string for its WAL record is the one allocation every report pays).
func TestIngestFrameAllocsPerReport(t *testing.T) {
	const runs, perFrame = 40, 512
	srv, _, _ := newAdmissionNode(t, fo.ModeFELIP)
	l, recs, err := reportlog.Open(filepath.Join(t.TempDir(), "round.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseWAL(l, recs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	frames := freshFrames(t, srv.col.Specs(), runs+1, perFrame)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		resp, _, err := srv.IngestFrame(frames[next])
		if err != nil || resp.Accepted != perFrame {
			t.Fatalf("frame %d: accepted %d, err %v", next, resp.Accepted, err)
		}
		next++
	})
	perReport := allocs / perFrame
	t.Logf("%.3f allocs/report over %d frames of %d fresh ids", perReport, runs, perFrame)
	if perReport > 4 {
		t.Fatalf("IngestFrame allocates %.2f times per report, want at most 4", perReport)
	}
}

// TestStatusReportsDedupBytes: /v1/status carries the index's allocated
// bytes beside its entry count, within the per-entry bound DESIGN.md §14
// states: 22 bytes of slots per entry, plus its id bytes and at most 18
// payload bytes in the arena (and under 0.3% chunk slack), plus a fixed
// 576 KiB of minimum tables and one chunk.
func TestStatusReportsDedupBytes(t *testing.T) {
	srv, ts, _ := newAdmissionNode(t, fo.ModeFELIP)
	var st struct {
		DedupEntries int   `json:"dedup_entries"`
		DedupBytes   int64 `json:"dedup_bytes"`
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.DedupEntries != 0 || st.DedupBytes != 0 {
		t.Fatalf("fresh server: dedup_entries=%d dedup_bytes=%d, want 0 and 0", st.DedupEntries, st.DedupBytes)
	}
	const perFrame = 512
	frames := freshFrames(t, srv.col.Specs(), 200, perFrame)
	idBytes := 0
	for _, frame := range frames {
		if _, _, err := srv.IngestFrame(frame); err != nil {
			t.Fatal(err)
		}
		var r wire.FrameReader
		if _, err := r.Reset(frame); err != nil {
			t.Fatal(err)
		}
		for r.Next() {
			idBytes += len(r.ID)
		}
	}
	getJSON(t, ts.URL+"/v1/status", &st)
	n := len(frames) * perFrame
	fixed := int64(dedupShards*dedupMinSlots*dedupSlotBytes + 1<<dedupChunkBits)
	arena := int64(idBytes + dedupMaxPayload*n)
	bound := int64(22*n) + arena*(1<<dedupChunkBits)/(1<<dedupChunkBits-wire.MaxReportIDLen-dedupMaxPayload) + fixed
	t.Logf("%d entries: dedup_bytes=%d (%.1f per entry), bound %d", st.DedupEntries, st.DedupBytes,
		float64(st.DedupBytes)/float64(n), bound)
	if st.DedupEntries != n || st.DedupBytes <= 0 || st.DedupBytes > bound {
		t.Fatalf("dedup_entries=%d dedup_bytes=%d; want %d entries and 0 < bytes <= %d", st.DedupEntries, st.DedupBytes, n, bound)
	}
}
