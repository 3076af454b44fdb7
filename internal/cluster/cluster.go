// Package cluster scales FELIP collection horizontally without changing its
// output: a fleet of shard servers ingests disjoint slices of the user
// population, and a coordinator merges their sealed partial aggregates into
// the exact aggregator a single server would have built from every report.
//
// The exactness rests on one property: shards export raw integer count
// vectors (per-value support counts, *before* estimation — see
// fo.PartialState), and integer count folding commutes. Summing the shards'
// vectors yields bit-for-bit the vector one collector folding the union
// stream holds, and the coordinator runs the float estimation pipeline
// exactly once over that sum — so a 3-shard cluster's query answers are
// bit-identical to single-node collection, not merely statistically
// equivalent. The privacy argument is untouched: a partial state is a
// deterministic function of the ε-LDP reports it folded, so shipping it to
// the coordinator consumes no extra budget.
//
// Topology:
//
//	device ──report──▶ shard RendezvousFor(report_id, names)   ingest plane
//	coordinator ──pull──▶ shard /v1/shard/state                round finalize
//	analyst ──query──▶ coordinator /v1/query                   serving plane
//
// Every cross-process step is idempotent — reports carry idempotency keys,
// the state pull re-serves identical bytes, round transitions name their
// target round — so the coordinator drives the round lifecycle with plain
// retries and a shard that crashes mid-round replays its WAL and rejoins
// without the cluster noticing more than latency.
package cluster

import "hash/fnv"

// shardSalt keeps the shard hash independent of httpapi.DeriveGroup's group
// hash. Both partition by report ID; with the same hash a cluster of S shards
// running a plan of G groups would correlate the two partitions (in the worst
// case S == G, shard i would only ever see group i and every shard's plan
// coverage would collapse).
const shardSalt = "felip-shard\x00"

// mix64 is a splitmix64-style finalizer. FNV-1a's xor and multiply never
// propagate downward, so a raw FNV-1a score's low bits are a function of the
// byte stream's low bits alone and the salt by itself does not decorrelate
// it from DeriveGroup's hash; the finalizer spreads every input bit across
// the whole word first.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RendezvousFor assigns a report to one of the named logical shards by
// highest-random-weight (rendezvous) hashing: each (shard name, key) pair is
// hashed independently and the highest score owns the key. It is stateless
// and idempotent, like httpapi.DeriveGroup: a device retrying the same report
// always lands on the same shard, so the shard's idempotency index can do its
// job. Two more properties make it the cluster's one router:
//
//   - Stability under growth: adding shard n+1 re-scores every key against
//     one new name, so exactly the keys the new name wins — in expectation
//     1/(n+1) of them — move, and every other key keeps its owner. Removing
//     a name only redistributes that name's keys.
//   - Identity, not address: the domain is logical shard *names*, which
//     survive failover. A promoted follower inherits its primary's name, so
//     every key — and every device retry carrying an idempotency key the old
//     primary's replicated dedup index already knows — keeps routing to the
//     same logical shard.
//
// The score hash is salted with shardSalt and finalized by mix64, so routing
// stays decorrelated from httpapi.DeriveGroup's group assignment. Ties
// (astronomically unlikely) break toward the lexically smallest name so every
// router agrees. names must be non-empty.
func RendezvousFor(reportID string, names []string) int {
	best := -1
	var bestScore uint64
	for i, name := range names {
		h := fnv.New64a()
		h.Write([]byte(shardSalt))
		h.Write([]byte(name))
		h.Write([]byte{0}) // separator: ("ab","c") must not collide with ("a","bc")
		h.Write([]byte(reportID))
		score := mix64(h.Sum64())
		if best < 0 || score > bestScore || (score == bestScore && name < names[best]) {
			best, bestScore = i, score
		}
	}
	return best
}
