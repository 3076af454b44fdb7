package wire

import (
	"fmt"
	"hash/crc32"
)

// Shard roles a node can register under. A primary ingests reports for one
// logical shard; a follower replicates a primary's write-ahead log and is the
// coordinator's promotion target when the primary's heartbeat lapses.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// RegisterMessage announces a node to the coordinator's membership. Name is
// the *logical* shard identity — stable across failover, and what rendezvous
// routing hashes — while Base is the node's current, replaceable address. A
// follower registers under the logical shard it replicates via Follows.
type RegisterMessage struct {
	Name string `json:"name"`
	Base string `json:"base"`
	Role string `json:"role"`
	// Follows names the logical shard a follower replicates (follower role
	// only; must match an already-registered primary's Name).
	Follows string `json:"follows,omitempty"`
}

// Validate checks the message shape before it reaches the membership state
// machine.
func (m RegisterMessage) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("wire: register without a shard name")
	}
	if m.Base == "" {
		return fmt.Errorf("wire: register %q without a base URL", m.Name)
	}
	switch m.Role {
	case RolePrimary:
		if m.Follows != "" {
			return fmt.Errorf("wire: primary %q cannot follow %q", m.Name, m.Follows)
		}
	case RoleFollower:
		if m.Follows == "" {
			return fmt.Errorf("wire: follower %q must name the shard it follows", m.Name)
		}
	default:
		return fmt.Errorf("wire: register %q with unknown role %q", m.Name, m.Role)
	}
	return nil
}

// RegisterResponse acknowledges a registration: the membership epoch the
// node joined at, and — for primaries — the first collection round the
// shard's reports will count toward. A fresh shard opens that round locally
// (httpapi.Server.Recover) so it never disagrees with the cluster about
// which round is collecting.
type RegisterResponse struct {
	Epoch     int64 `json:"epoch"`
	JoinRound int   `json:"join_round"`
}

// HeartbeatMessage is a node's periodic liveness report. Primaries carry
// their collection round and WAL position; followers additionally carry the
// primary position they last observed, which is what the coordinator turns
// into the per-shard replication-lag gauges.
type HeartbeatMessage struct {
	Name string `json:"name"`
	Base string `json:"base"`
	Role string `json:"role"`
	// Round and WALPos describe this node's own log: for a primary the open
	// collection round and its segment's end offset, for a follower the round
	// and offset it has replicated through.
	Round  int   `json:"round"`
	WALPos int64 `json:"wal_pos"`
	// PrimaryRound and PrimaryPos are the primary-side positions a follower
	// observed on its last successful sync (follower role only).
	PrimaryRound int   `json:"primary_round,omitempty"`
	PrimaryPos   int64 `json:"primary_pos,omitempty"`
}

// Validate checks the heartbeat shape.
func (m HeartbeatMessage) Validate() error {
	if m.Name == "" || m.Base == "" {
		return fmt.Errorf("wire: heartbeat without name or base")
	}
	if m.Role != RolePrimary && m.Role != RoleFollower {
		return fmt.Errorf("wire: heartbeat %q with unknown role %q", m.Name, m.Role)
	}
	return nil
}

// HeartbeatResponse acknowledges a heartbeat with the current membership
// epoch, so a node can cheaply notice membership changed and refresh.
type HeartbeatResponse struct {
	Epoch int64 `json:"epoch"`
}

// MemberInfo is one logical shard in the membership snapshot.
type MemberInfo struct {
	Name string `json:"name"`
	Base string `json:"base"`
	// Alive reports the liveness verdict (static members are always alive:
	// they predate heartbeating and are exempt from eviction).
	Alive  bool `json:"alive"`
	Static bool `json:"static,omitempty"`
	// JoinedRound is the first round this shard's reports count toward.
	JoinedRound int `json:"joined_round"`
	// Follower is the shard's replication target, when one is attached.
	Follower *FollowerInfo `json:"follower,omitempty"`
}

// FollowerInfo describes a primary's attached follower.
type FollowerInfo struct {
	Base string `json:"base"`
	// LagSegments is how many WAL segments (rounds) the follower trails its
	// primary by; LagBytes the byte gap within the current segment.
	LagSegments int   `json:"lag_segments"`
	LagBytes    int64 `json:"lag_bytes"`
}

// MembershipMessage is the coordinator's routable-membership snapshot served
// at GET /v1/membership. Clients route reports by rendezvous hashing over the
// member names; the epoch tells them when to rebuild that map.
type MembershipMessage struct {
	Epoch int64 `json:"epoch"`
	// Round is the collection round the cluster is in.
	Round   int          `json:"round"`
	Members []MemberInfo `json:"members"`
}

// Names returns the logical shard names in snapshot order — the rendezvous
// routing domain.
func (m MembershipMessage) Names() []string {
	names := make([]string, len(m.Members))
	for i, mem := range m.Members {
		names[i] = mem.Name
	}
	return names
}

// SegmentChunk is one slice of a primary's write-ahead log on the replication
// wire: raw, already-framed reportlog bytes from offset From of the given
// round's segment, checksummed end to end so a follower never appends bytes
// damaged in transit.
type SegmentChunk struct {
	ShardID string `json:"shard_id"`
	Round   int    `json:"round"`
	From    int64  `json:"from"`
	Data    []byte `json:"data,omitempty"`
	// Sum is CRC32-IEEE over Data.
	Sum uint32 `json:"sum"`
	// Pos is the segment's end offset at serve time (From + len(Data)).
	Pos int64 `json:"pos"`
	// Sealed means no byte will ever be appended to this round's segment
	// again (the primary has moved to a later round); a follower that has
	// consumed through Pos may advance to the next segment.
	Sealed bool `json:"sealed"`
	// Truncated means the round's segment bytes no longer exist on the
	// primary — they were archived into a snapshot and the segment file was
	// truncated. A truncated chunk carries no data and is NOT the same as an
	// empty round: a follower cannot verify or replay this round's history
	// from the primary's log and must refuse to silently skip it.
	Truncated bool `json:"truncated,omitempty"`
	// CurrentRound is the primary's open collection round.
	CurrentRound int `json:"current_round"`
}

// NewSegmentChunk checksums a chunk for the wire.
func NewSegmentChunk(shardID string, round int, from int64, data []byte, pos int64, sealed bool, currentRound int) SegmentChunk {
	return SegmentChunk{
		ShardID:      shardID,
		Round:        round,
		From:         from,
		Data:         data,
		Sum:          crc32.ChecksumIEEE(data),
		Pos:          pos,
		Sealed:       sealed,
		CurrentRound: currentRound,
	}
}

// NewTruncatedSegmentChunk marks a round whose segment bytes were archived
// away on the primary: there is nothing left to ship, and the follower must
// treat the round as unverifiable from the log, not as empty. Pos equals
// From because the original segment length is gone with the bytes.
func NewTruncatedSegmentChunk(shardID string, round int, from int64, currentRound int) SegmentChunk {
	c := NewSegmentChunk(shardID, round, from, nil, from, true, currentRound)
	c.Truncated = true
	return c
}

// Verify checks the chunk's internal consistency and checksum. A follower
// verifies before appending a single byte: replicated segments must be
// bit-identical to the primary's, or promotion would not be.
func (c SegmentChunk) Verify() error {
	if c.Round < 1 || c.From < 0 {
		return fmt.Errorf("wire: segment chunk round %d offset %d out of range", c.Round, c.From)
	}
	if c.From+int64(len(c.Data)) != c.Pos {
		return fmt.Errorf("wire: segment chunk spans [%d,%d) but claims end %d", c.From, c.From+int64(len(c.Data)), c.Pos)
	}
	if got := crc32.ChecksumIEEE(c.Data); got != c.Sum {
		return fmt.Errorf("wire: segment chunk checksum %08x, message claims %08x", got, c.Sum)
	}
	return nil
}

// PromoteRequest asks a follower to take over its logical shard: verify the
// shipped-segment CRC chain, replay it, and begin serving as the primary for
// the given collection round.
type PromoteRequest struct {
	Round int `json:"round"`
}

// PromoteResponse reports a completed promotion.
type PromoteResponse struct {
	Name string `json:"name"`
	// Round is the collection round the promoted shard is now serving.
	Round int `json:"round"`
	// Reports is how many reports the replayed chain reconstructed.
	Reports int `json:"reports"`
	// Replayed is how many WAL records were replayed during takeover.
	Replayed int `json:"replayed"`
}
