package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"felip/internal/fo"
)

// ShardStateVersion is the partial-aggregate wire-format version. A
// coordinator refuses states from a different version instead of merging
// counts whose meaning may have drifted.
const ShardStateVersion = 1

// GridStateDTO is one grid's partial-aggregate state on the wire: the exact
// integer count vector the shard folded its reports into (see
// fo.PartialState), *before* estimation — which is what makes shard states
// losslessly mergeable.
type GridStateDTO struct {
	Group    int     `json:"group"`
	Proto    string  `json:"proto"`
	L        int     `json:"l"`
	N        int     `json:"n"`
	Rejected int     `json:"rejected,omitempty"`
	Counts   []int64 `json:"counts"`
}

// ShardStateMessage is a shard server's sealed round state: one partial
// aggregate per grid of the plan, plus the shard's operational counters. The
// coordinator pulls one per shard at round finalize, verifies the checksum,
// and merges the grids into its own collector.
//
// The message is a deterministic function of the set of reports the shard
// accepted, so a shard that crashed and replayed its WAL re-serves the same
// message — the coordinator may fetch it any number of times.
type ShardStateMessage struct {
	Version int    `json:"version"`
	ShardID string `json:"shard_id"`
	// Round is the collection round the state belongs to (1-based).
	Round   int     `json:"round"`
	Epsilon float64 `json:"epsilon"`
	// Mode is the shard's reporting mode (ModeName form; "" = FELIP, keeping
	// v1 messages and their checksums byte-identical). The coordinator refuses
	// to merge shard states whose modes disagree with its own plan: partial
	// counts folded under different perturbation budgets are not mergeable.
	Mode string `json:"mode,omitempty"`
	// Longitudinal carries the shard's two-stage memoized-reporting budgets;
	// nil on every one-shot shard (keeping v1 messages and checksums
	// byte-identical). The coordinator refuses to merge shard states whose
	// longitudinal parameters disagree with its own: counts drawn through
	// different two-stage chains invert differently.
	Longitudinal *fo.Longitudinal `json:"longitudinal,omitempty"`
	// Reports is the shard's accepted-report total (the sum of the grid Ns).
	Reports int `json:"reports"`
	// Rejected is the shard's refused-submission total (wire-level plus
	// plan-level) — surfaced so the coordinator's status roll-up does not
	// lose it inside the shard process.
	Rejected int `json:"rejected"`
	// WALReplayed is how many report records the shard replayed from its
	// write-ahead log since startup — nonzero means the shard recovered from
	// a crash during this round.
	WALReplayed int            `json:"wal_replayed,omitempty"`
	Grids       []GridStateDTO `json:"grids"`
	// Checksum is CRC32-IEEE over the canonical serialization of every
	// merge-relevant field (all of the above except WALReplayed, which is
	// operational metadata and legitimately changes across a crash).
	Checksum uint32 `json:"checksum"`
}

// GridStates encodes partial-aggregate states for the wire (or a durable
// snapshot), in group order — the collector's export order.
func GridStates(states []fo.PartialState) []GridStateDTO {
	out := make([]GridStateDTO, 0, len(states))
	for g, st := range states {
		out = append(out, GridStateDTO{
			Group:    g,
			Proto:    st.Proto.String(),
			L:        st.L,
			N:        st.N,
			Rejected: st.Rejected,
			Counts:   append([]int64(nil), st.Counts...),
		})
	}
	return out
}

// ParseGridStates decodes per-grid partial aggregates, in group order. The
// grids must be dense (group g at index g) — the shape GridStates produces
// and the only shape a merge can consume positionally.
func ParseGridStates(grids []GridStateDTO, eps float64) ([]fo.PartialState, error) {
	out := make([]fo.PartialState, len(grids))
	for i, g := range grids {
		if g.Group != i {
			return nil, fmt.Errorf("wire: grid state %d carries group %d; grids must be dense and ordered", i, g.Group)
		}
		proto, err := fo.ParseProtocol(g.Proto)
		if err != nil {
			return nil, fmt.Errorf("wire: grid state %d: %w", i, err)
		}
		out[i] = fo.PartialState{
			Proto:    proto,
			Epsilon:  eps,
			L:        g.L,
			N:        g.N,
			Rejected: g.Rejected,
			Counts:   append([]int64(nil), g.Counts...),
		}
	}
	return out, nil
}

// NewShardStateMessage encodes a sealed shard round for the wire. states must
// be in group order (the collector's export order).
func NewShardStateMessage(shardID string, round int, eps float64, mode fo.ReportMode, long *fo.Longitudinal, rejected, walReplayed int, states []fo.PartialState) ShardStateMessage {
	m := ShardStateMessage{
		Version:      ShardStateVersion,
		ShardID:      shardID,
		Round:        round,
		Epsilon:      eps,
		Mode:         ModeName(mode),
		Longitudinal: long,
		Rejected:     rejected,
		WALReplayed:  walReplayed,
		Grids:        GridStates(states),
	}
	for _, st := range states {
		m.Reports += st.N
	}
	m.Checksum = m.Sum()
	return m
}

// Sum computes the message's canonical CRC32-IEEE checksum: every
// merge-relevant field in fixed order, little-endian, length-prefixed
// strings. WALReplayed and Checksum itself are excluded.
func (m ShardStateMessage) Sum() uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(m.Version))
	str(m.ShardID)
	put(uint64(m.Round))
	put(math.Float64bits(m.Epsilon))
	// Mode entered the message after v1 shipped; folding it in only when set
	// keeps every FELIP ("" mode) checksum identical to its v1 value.
	if m.Mode != "" {
		str("mode")
		str(m.Mode)
	}
	// Same discipline for the longitudinal budgets: absent (nil) leaves every
	// one-shot checksum at its v1 value; present binds both stage budgets.
	if m.Longitudinal != nil {
		str("longitudinal")
		put(math.Float64bits(m.Longitudinal.EpsPerm))
		put(math.Float64bits(m.Longitudinal.Eps1))
	}
	put(uint64(m.Reports))
	put(uint64(m.Rejected))
	put(uint64(len(m.Grids)))
	for _, g := range m.Grids {
		put(uint64(g.Group))
		str(g.Proto)
		put(uint64(g.L))
		put(uint64(g.N))
		put(uint64(g.Rejected))
		put(uint64(len(g.Counts)))
		for _, c := range g.Counts {
			put(uint64(c))
		}
	}
	return h.Sum32()
}

// Verify checks the wire-format version, the checksum, that Reports is the
// sum of the grids' report counts, and the mode and longitudinal fields. A
// coordinator verifies before decoding: a state damaged in transit or
// produced by an incompatible shard must never reach the merge.
func (m ShardStateMessage) Verify() error {
	if m.Version != ShardStateVersion {
		return fmt.Errorf("wire: shard state version %d, want %d", m.Version, ShardStateVersion)
	}
	if got := m.Sum(); got != m.Checksum {
		return fmt.Errorf("wire: shard %q state checksum %08x, message claims %08x", m.ShardID, got, m.Checksum)
	}
	n := 0
	for _, g := range m.Grids {
		n += g.N
	}
	if n != m.Reports {
		return fmt.Errorf("wire: shard %q state claims %d reports, its grids hold %d", m.ShardID, m.Reports, n)
	}
	// The checksum covers the mode as spelled, so only the spelling a shard
	// writes (ModeName) is accepted: an alias would verify, yet a re-pull of
	// the same round would carry another checksum.
	if mode, err := fo.ParseReportMode(m.Mode); err != nil {
		return fmt.Errorf("wire: shard %q state: %w", m.ShardID, err)
	} else if ModeName(mode) != m.Mode {
		return fmt.Errorf("wire: shard %q state: mode %q is spelled %q on the wire", m.ShardID, m.Mode, ModeName(mode))
	}
	if err := m.Longitudinal.Validate(); err != nil {
		return fmt.Errorf("wire: shard %q state: %w", m.ShardID, err)
	}
	return nil
}

// ReportMode decodes the message's mode field ("" reads as FELIP, the only
// mode v1 shards could run).
func (m ShardStateMessage) ReportMode() (fo.ReportMode, error) {
	return fo.ParseReportMode(m.Mode)
}

// States decodes the per-grid partial aggregates, in group order (see
// ParseGridStates), at the message's ε.
func (m ShardStateMessage) States() ([]fo.PartialState, error) {
	return ParseGridStates(m.Grids, m.Epsilon)
}
