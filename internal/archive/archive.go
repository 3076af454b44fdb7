// Package archive is FELIP's durable round store: a versioned, checksummed
// on-disk snapshot per finalized collection round, written atomically at
// finalize and read back at restart — so recovery costs one snapshot load
// plus the WAL tail instead of a full replay — and a historical (time-travel)
// query plane that lazily opens serve.Engine instances from archived rounds.
//
// What a snapshot holds is what the Cormode et al. benchmark study singles
// out as the LDP aggregate's defining property: O(L) integer count vectors
// per grid, independent of n. Persisting them (plus the post-processed
// frequency grids) is cheap enough to keep every round forever, and — being
// a deterministic post-processing of the round's ε-LDP output — consumes no
// additional privacy budget.
//
// Durability discipline: snapshots are written to a temp file, fsynced,
// renamed into place, and the directory fsynced. WAL segments for a round may
// be truncated only after that sequence completes ("snapshot fsync
// happens-before WAL truncate"); a crash in between leaves stale segments
// that recovery ignores in favor of the snapshot and re-truncates.
package archive

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"felip/internal/core"
	"felip/internal/metrics"
	"felip/internal/wire"
)

// Version guards the on-disk snapshot envelope format.
const Version = 1

// magic opens every snapshot file; a reader that does not find it refuses the
// file before trusting any length field.
const magic = "FELIPSNP"

// headerLen is magic + version u32 + payload-len u32 + CRC32 u32.
const headerLen = len(magic) + 12

// Instruments (surfaced through /v1/status via metrics.Snapshot).
var (
	snapBytes   = metrics.GetGauge("archive.snapshot_bytes")
	openEngines = metrics.GetGauge("archive.open_engines")
	restoreMS   = metrics.GetGauge("archive.restore_ms")
	retained    = metrics.GetGauge("archive.rounds_retained")
	corrupt     = metrics.GetCounter("archive.corrupt_snapshots")
	writeTimer  = metrics.GetTimer("archive.write")
)

// RoundSnapshot is everything the archive persists about one finalized round.
type RoundSnapshot struct {
	// Round is the collection round (1-based).
	Round int `json:"round"`
	// PlanFingerprint is wire.PlanMessage.Fingerprint() of the plan the round
	// collected under. Restores refuse a snapshot whose fingerprint does not
	// match the running server's plan — a drifted flag set must not silently
	// serve another configuration's numbers.
	PlanFingerprint uint32 `json:"plan_fingerprint"`
	// Reports is the round's accepted-report total.
	Reports int `json:"reports"`
	// Rejected is the round's refused-submission count at its close, which a
	// restart restores so a re-pulled shard state matches the first pull.
	// Absent when zero, so a round without rejections writes the snapshot it
	// always did.
	Rejected int `json:"rejected,omitempty"`
	// Partials carries the per-grid exact integer count vectors
	// (fo.PartialState) the estimates were computed from, in group order.
	// They make an archived round re-mergeable (a coordinator can re-derive
	// or audit the estimation), not just re-servable. Empty when the writer
	// no longer held the pre-estimation counts (e.g. a backfill from a
	// restored aggregate).
	Partials []wire.GridStateDTO `json:"partials,omitempty"`
	// Aggregate is the post-processed round state core.Restore rebuilds a
	// query-ready aggregator from. Float64 values round-trip exactly through
	// Go's JSON encoding, so a restored engine answers bit-identically.
	Aggregate core.Snapshot `json:"aggregate"`
}

// Encode serializes the snapshot into its checksummed envelope:
// magic, version, payload length, CRC32-IEEE of the payload, JSON payload.
func Encode(s RoundSnapshot) ([]byte, error) {
	if s.Round < 1 {
		return nil, fmt.Errorf("archive: snapshot for round %d (rounds are 1-based)", s.Round)
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("archive: encoding round %d: %w", s.Round, err)
	}
	buf := make([]byte, headerLen, headerLen+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], Version)
	binary.LittleEndian.PutUint32(buf[len(magic)+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(magic)+8:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// Decode validates the envelope (magic, version, length, checksum) and
// returns the snapshot. Any damage — torn tail, flipped byte, truncation —
// is an error; the store treats such files as absent.
func Decode(b []byte) (RoundSnapshot, error) {
	var s RoundSnapshot
	if len(b) < headerLen {
		return s, fmt.Errorf("archive: snapshot of %d bytes is shorter than the %d-byte header", len(b), headerLen)
	}
	if string(b[:len(magic)]) != magic {
		return s, fmt.Errorf("archive: bad magic %q", b[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != Version {
		return s, fmt.Errorf("archive: snapshot version %d not supported (want %d)", v, Version)
	}
	plen := binary.LittleEndian.Uint32(b[len(magic)+4:])
	want := binary.LittleEndian.Uint32(b[len(magic)+8:])
	payload := b[headerLen:]
	if uint32(len(payload)) != plen {
		return s, fmt.Errorf("archive: payload is %d bytes, header claims %d (torn write)", len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return s, fmt.Errorf("archive: payload checksum %08x, header claims %08x", got, want)
	}
	if err := json.Unmarshal(payload, &s); err != nil {
		return s, fmt.Errorf("archive: decoding payload: %w", err)
	}
	if s.Round < 1 {
		return s, fmt.Errorf("archive: snapshot claims round %d", s.Round)
	}
	return s, nil
}

// fileName is the snapshot file for a round; zero-padded so lexical order is
// round order.
func fileName(round int) string { return fmt.Sprintf("round-%06d.snap", round) }

// parseFileName inverts fileName; ok is false for foreign files.
func parseFileName(name string) (round int, ok bool) {
	var r int
	if n, err := fmt.Sscanf(name, "round-%d.snap", &r); err != nil || n != 1 || r < 1 {
		return 0, false
	}
	if name != fileName(r) {
		return 0, false
	}
	return r, true
}

// Options configures a store.
type Options struct {
	// RetainRounds keeps only the newest K archived rounds (0 = keep all).
	// Applied after every write.
	RetainRounds int
	// MaxOpenEngines bounds the historical query plane's engine cache
	// (default 4). Evicted engines stay valid for in-flight queries — they
	// are immutable — and are simply rebuilt on next use. A cached engine
	// holds its round's grids, each attribute's prefix-summed marginal and
	// every pair's surface in product form (one factor per 2-D cell and per
	// 1-D band, no per-value table): about 0.15 MB once warmed on the
	// pipeline benchmark's plan, so the bound is on rebuild work more than
	// on memory.
	MaxOpenEngines int
	// PlanFingerprint, when nonzero, makes Load and Engine refuse snapshots
	// written under a different plan. Servers set it from their own plan;
	// offline tools leave it zero to read anything.
	PlanFingerprint uint32
	// Logf receives operational notices (corrupt snapshots skipped,
	// retention deletions). Nil = silent.
	Logf func(format string, args ...any)
}

// roundMeta is what Open gleans per valid snapshot without keeping payloads
// resident.
type roundMeta struct {
	reports int
	bytes   int64
}

// Store is the archive of one server: a directory of snapshot files plus the
// LRU-bounded engine cache of the historical query plane. Safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	rounds map[int]roundMeta
	// engines is the historical plane's cache; see history.go.
	engines map[int]*engineSlot
	useSeq  int64
}

// Open scans dir (creating it if absent) and indexes every valid snapshot.
// Corrupt or torn files are counted, reported via Logf, and skipped — never
// deleted, and never allowed to shadow a valid older snapshot. Stray temp
// files from interrupted writes are removed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxOpenEngines == 0 {
		opts.MaxOpenEngines = 4
	}
	if opts.MaxOpenEngines < 1 {
		return nil, fmt.Errorf("archive: MaxOpenEngines must be >= 1, got %d", opts.MaxOpenEngines)
	}
	if opts.RetainRounds < 0 {
		return nil, fmt.Errorf("archive: RetainRounds must be >= 0, got %d", opts.RetainRounds)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	st := &Store{
		dir:     dir,
		opts:    opts,
		rounds:  make(map[int]roundMeta),
		engines: make(map[int]*engineSlot),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		round, ok := parseFileName(e.Name())
		if !ok {
			continue
		}
		snap, size, err := st.readFile(round)
		if err != nil {
			corrupt.Inc()
			st.logf("archive: skipping snapshot %s: %v", e.Name(), err)
			continue
		}
		st.rounds[round] = roundMeta{reports: snap.Reports, bytes: size}
	}
	st.publishGauges()
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) logf(format string, args ...any) {
	if st.opts.Logf != nil {
		st.opts.Logf(format, args...)
	}
}

// readFile loads and validates one snapshot file: its envelope, and the
// round its payload claims.
func (st *Store) readFile(round int) (RoundSnapshot, int64, error) {
	b, err := os.ReadFile(filepath.Join(st.dir, fileName(round)))
	if err != nil {
		return RoundSnapshot{}, 0, err
	}
	snap, err := Decode(b)
	if err != nil {
		return RoundSnapshot{}, 0, err
	}
	if snap.Round != round {
		return RoundSnapshot{}, 0, fmt.Errorf("archive: snapshot file for round %d claims round %d", round, snap.Round)
	}
	return snap, int64(len(b)), nil
}

// load reads one round's snapshot file and refuses another plan's.
func (st *Store) load(round int) (RoundSnapshot, error) {
	snap, _, err := st.readFile(round)
	if err != nil {
		return RoundSnapshot{}, err
	}
	if err := st.checkPlan(snap); err != nil {
		return RoundSnapshot{}, err
	}
	return snap, nil
}

// checkPlan refuses snapshots from a drifted configuration.
func (st *Store) checkPlan(snap RoundSnapshot) error {
	if st.opts.PlanFingerprint != 0 && snap.PlanFingerprint != st.opts.PlanFingerprint {
		return fmt.Errorf("archive: round %d snapshot was written under plan %08x, server plan is %08x — refusing to serve another configuration's numbers",
			snap.Round, snap.PlanFingerprint, st.opts.PlanFingerprint)
	}
	return nil
}

// WriteRound atomically persists a finalized round: temp file, fsync, rename,
// directory fsync. On return the snapshot is durable — only then may the
// caller truncate the round's WAL segments. Rewriting an existing round is
// legal and idempotent (recovery paths re-archive the round they restored).
// Retention is applied after the write.
func (st *Store) WriteRound(snap RoundSnapshot) error {
	start := time.Now()
	b, err := Encode(snap)
	if err != nil {
		return err
	}
	final := filepath.Join(st.dir, fileName(snap.Round))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("archive: writing round %d: %w", snap.Round, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("archive: syncing round %d: %w", snap.Round, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: closing round %d: %w", snap.Round, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: publishing round %d: %w", snap.Round, err)
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	writeTimer.Observe(time.Since(start))

	st.mu.Lock()
	st.rounds[snap.Round] = roundMeta{reports: snap.Reports, bytes: int64(len(b))}
	st.dropEngineLocked(snap.Round) // a rewrite must not serve the stale engine
	removed := st.retainLocked()
	st.publishGaugesLocked()
	st.mu.Unlock()
	for _, r := range removed {
		st.logf("archive: retention dropped round %d", r)
	}
	return nil
}

// retainLocked enforces keep-last-K, deleting the oldest snapshots beyond the
// bound. Caller holds st.mu.
func (st *Store) retainLocked() []int {
	if st.opts.RetainRounds == 0 || len(st.rounds) <= st.opts.RetainRounds {
		return nil
	}
	rounds := st.roundsAscLocked()
	drop := rounds[:len(rounds)-st.opts.RetainRounds]
	var removed []int
	for _, r := range drop {
		if err := os.Remove(filepath.Join(st.dir, fileName(r))); err != nil && !os.IsNotExist(err) {
			st.logf("archive: retention failed to remove round %d: %v", r, err)
			continue
		}
		delete(st.rounds, r)
		st.dropEngineLocked(r)
		removed = append(removed, r)
	}
	if len(removed) > 0 {
		if err := syncDir(st.dir); err != nil {
			st.logf("%v", err)
		}
	}
	return removed
}

// roundsAscLocked returns the archived rounds in ascending order. Caller
// holds st.mu.
func (st *Store) roundsAscLocked() []int {
	out := make([]int, 0, len(st.rounds))
	for r := range st.rounds {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Rounds returns the archived rounds in ascending order.
func (st *Store) Rounds() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.roundsAscLocked()
}

// Info returns a round's listing metadata (reports, on-disk bytes).
func (st *Store) Info(round int) (reports int, bytes int64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.rounds[round]
	return m.reports, m.bytes, ok
}

// LatestRound returns the newest archived round, or 0 when the archive is
// empty.
func (st *Store) LatestRound() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	latest := 0
	for r := range st.rounds {
		if r > latest {
			latest = r
		}
	}
	return latest
}

// Load reads, validates, and decodes one archived round.
func (st *Store) Load(round int) (RoundSnapshot, error) {
	st.mu.Lock()
	_, ok := st.rounds[round]
	st.mu.Unlock()
	if !ok {
		return RoundSnapshot{}, fmt.Errorf("archive: round %d is not archived", round)
	}
	return st.load(round)
}

// publishGauges refreshes the store-level metrics.
func (st *Store) publishGauges() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.publishGaugesLocked()
}

func (st *Store) publishGaugesLocked() {
	var total int64
	for _, m := range st.rounds {
		total += m.bytes
	}
	snapBytes.Set(total)
	retained.Set(int64(len(st.rounds)))
	openEngines.Set(int64(len(st.engines)))
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("archive: syncing %s: %w", dir, err)
	}
	return nil
}
