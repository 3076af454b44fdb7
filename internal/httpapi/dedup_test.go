package httpapi

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"
	"unsafe"

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

// TestDedupIndexMatchesMap drives the index and a map through the same
// inserts — random ids of every legal length, ids sharing prefixes, ids that
// differ only in length — until every shard has grown several times, and
// requires get, put and len to agree after every step.
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
			key := packedKey{seed: rng.Uint64(), value: rng.Uint32(), group: rng.Uint32()}
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
	for _, s := range sh.slots {
		if s.ref != 0 {
			refs = append(refs, s.ref&(1<<24-1))
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
// bytes; opcode bit 0 inserts the id, bit 1 inserts 200 ids derived from it
// (so short inputs still fill the index), and any other opcode only looks
// the id up. A table's first doubling needs 193 ids in one shard, beyond
// what an input reaches; TestDedupIndexMatchesMap covers growth.
func FuzzDedupIndex(f *testing.F) {
	f.Add([]byte("\x01\x03abc\x00\x03abc\x01\x04abcd\x02\x01z\x00\x02ab"))
	f.Add([]byte("\x03\x80" + string(make([]byte, 128)) + "\x00\x81"))
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
			key := packedKey{seed: uint64(op), value: uint32(n), group: uint32(len(ref))}
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
// states: 64 bytes of slots per entry plus its id bytes (and under 0.2%
// chunk slack), plus a fixed 1.6 MiB of minimum tables and one chunk.
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
	fixed := dedupShards*dedupMinSlots*int64(unsafe.Sizeof(dedupSlot{})) + 1<<dedupChunkBits
	bound := int64(64*n) + int64(idBytes)*(1<<dedupChunkBits)/(1<<dedupChunkBits-wire.MaxReportIDLen) + fixed
	t.Logf("%d entries: dedup_bytes=%d (%.1f per entry), bound %d", st.DedupEntries, st.DedupBytes,
		float64(st.DedupBytes)/float64(n), bound)
	if st.DedupEntries != n || st.DedupBytes <= 0 || st.DedupBytes > bound {
		t.Fatalf("dedup_entries=%d dedup_bytes=%d; want %d entries and 0 < bytes <= %d", st.DedupEntries, st.DedupBytes, n, bound)
	}
}
