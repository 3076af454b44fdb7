package httpapi

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"

	"felip/internal/core"
	"felip/internal/wire"
)

// This file is the idempotency-key index: every report_id the server has
// accepted, across rounds, with the payload it was accepted with. FELIP's
// estimates are unbiased only if each report is counted once, so the index
// must be exact, and it grows with every report, so it must be small and
// cheap for the garbage collector.
//
// Layout. Each entry — the id's bytes, then its payload in a compact
// encoding — is appended to an arena of fixed-size chunks. The ids are
// spread over dedupShards open-addressing tables by the top byte of their
// hash; a table's slot is one word that locates the entry in the arena and
// carries the id's length and 16 further hash bits. Neither the slots nor
// the chunks hold a pointer, so the collector never scans them.
//
// Exactness. A probe skips a slot whose hash bits or length differ; one
// that matches both is confirmed by comparing the id bytes. Only then is the
// payload decoded, so a fresh id never reads one.
//
// Growth. A table doubles when it passes 3/4 full, rehashing only its own
// ids — about 1/256 of the index — so no insert pays for the whole index.
//
// Keyed hash. Devices choose their ids, so ids are hashed with hash/maphash
// under a seed drawn per index: nobody can aim ids at one probe chain. The
// seed need not persist, because a restart rebuilds the index from the WAL.

const (
	dedupShardBits  = 8
	dedupShards     = 1 << dedupShardBits
	dedupMinSlots   = 256 // 2 KiB; smaller tables would add an allocation every few dozen ids while the index is small
	dedupChunkBits  = 16  // 64 KiB arena chunks
	dedupSlotBytes  = 8
	dedupMaxPayload = 18 // two 5-byte uvarints and a seed
)

// packedKey is a report's payload as the index stores it. Two reports are
// the same submission iff their packed keys are equal.
type packedKey struct {
	seed  uint64
	value uint32
	group uint32 // group<<8 | protocol
}

// packKey packs a report's payload. It fails for a group or value that does
// not fit (negative, group ≥ 2^24, value ≥ 2^32). Every report that passes
// Collector.Check packs: the plan bounds a group by its grid count and a
// value by a grid's cell count or hash range, and the collector keeps a
// counter per value. So a report that does not pack never equals a stored
// key.
func packKey(rep core.Report) (packedKey, bool) {
	if rep.Group < 0 || rep.Group >= 1<<24 || rep.Value < 0 || uint64(rep.Value) >= 1<<32 {
		return packedKey{}, false
	}
	return packedKey{seed: rep.Seed, value: uint32(rep.Value), group: uint32(rep.Group)<<8 | uint32(rep.Proto)}, true
}

// appendKey appends key's arena encoding to b: uvarint(group),
// uvarint(value), then the seed as 8 little-endian bytes. The encoding is at
// most dedupMaxPayload bytes.
func appendKey(b []byte, key packedKey) []byte {
	b = binary.AppendUvarint(b, uint64(key.group))
	b = binary.AppendUvarint(b, uint64(key.value))
	return binary.LittleEndian.AppendUint64(b, key.seed)
}

// decodeKey reads the key appendKey wrote at the start of b.
func decodeKey(b []byte) packedKey {
	group, n := binary.Uvarint(b)
	value, m := binary.Uvarint(b[n:])
	return packedKey{seed: binary.LittleEndian.Uint64(b[n+m:]), value: uint32(value), group: uint32(group)}
}

// dedupShard is one open-addressing table. A slot holds its entry's arena
// offset in the high 40 bits, 16 hash bits, and the id's length in the low
// 8; zero marks an empty slot (stored ids are never empty).
type dedupShard struct {
	slots []uint64 // length a power of two, or nil
	used  int
}

// dedupIndex maps accepted report ids to their payload keys. It is not safe
// for concurrent use; the server touches it under s.mu.
type dedupIndex struct {
	seed   maphash.Seed
	shards [dedupShards]dedupShard
	chunks [][]byte // the arena; each chunk holds 1<<dedupChunkBits bytes
	n      int
	nslots int // slots over every shard
}

func newDedupIndex() *dedupIndex {
	return &dedupIndex{seed: maphash.MakeSeed()}
}

// get returns the key stored under id. Any id may be looked up, of any
// length; only ids of 1 to wire.MaxReportIDLen bytes can be stored.
func (x *dedupIndex) get(id []byte) (packedKey, bool) {
	if len(id) == 0 || len(id) > wire.MaxReportIDLen {
		return packedKey{}, false
	}
	h := maphash.Bytes(x.seed, id)
	sh := &x.shards[h>>(64-dedupShardBits)]
	if sh.slots == nil {
		return packedKey{}, false
	}
	want := probeBits(h, len(id))
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ref := sh.slots[i]
		if ref == 0 {
			return packedKey{}, false
		}
		if ref&(1<<24-1) == want {
			if e := x.entry(ref); bytes.Equal(e[:len(id)], id) {
				return decodeKey(e[len(id):]), true
			}
		}
	}
}

// put stores id under key. The caller has proved id absent with get and
// holds a validated id of 1 to wire.MaxReportIDLen bytes.
func (x *dedupIndex) put(id []byte, key packedKey) {
	h := maphash.Bytes(x.seed, id)
	sh := &x.shards[h>>(64-dedupShardBits)]
	if (sh.used+1)*4 > len(sh.slots)*3 {
		x.grow(sh)
	}
	sh.insert(h, x.store(id, key)<<24|probeBits(h, len(id)))
	x.n++
}

// probeBits is the part of a slot a probe compares before the bytes: 16
// hash bits above the length. The hash bits sit clear of those that choose
// the shard and the slot.
func probeBits(h uint64, n int) uint64 {
	return (h>>40&0xffff)<<8 | uint64(n)
}

func (sh *dedupShard) insert(h uint64, ref uint64) {
	mask := uint64(len(sh.slots) - 1)
	i := h & mask
	for sh.slots[i] != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = ref
	sh.used++
}

// grow doubles one shard's table, rehashing its ids from the arena.
func (x *dedupIndex) grow(sh *dedupShard) {
	old := sh.slots
	size := max(2*len(old), dedupMinSlots)
	sh.slots, sh.used = make([]uint64, size), 0
	x.nslots += size - len(old)
	for _, ref := range old {
		if ref != 0 {
			sh.insert(maphash.Bytes(x.seed, x.entry(ref)[:ref&0xff]), ref)
		}
	}
}

// store appends id and its encoded key to the arena and returns the entry's
// offset. An entry never spans two chunks.
func (x *dedupIndex) store(id []byte, key packedKey) uint64 {
	var buf [dedupMaxPayload]byte
	payload := appendKey(buf[:0], key)
	last := len(x.chunks) - 1
	if last < 0 || len(x.chunks[last])+len(id)+len(payload) > 1<<dedupChunkBits {
		x.chunks = append(x.chunks, make([]byte, 0, 1<<dedupChunkBits))
		last++
	}
	off := uint64(last)<<dedupChunkBits | uint64(len(x.chunks[last]))
	x.chunks[last] = append(append(x.chunks[last], id...), payload...)
	return off
}

// entry returns the arena from ref's entry to the end of its chunk: the id's
// bytes, its encoded key, then any later entries.
func (x *dedupIndex) entry(ref uint64) []byte {
	off := ref >> 24
	return x.chunks[off>>dedupChunkBits][off&(1<<dedupChunkBits-1):]
}

// len returns the number of stored ids.
func (x *dedupIndex) len() int { return x.n }

// sizeBytes returns the memory the index has allocated: its slots and its
// arena chunks.
func (x *dedupIndex) sizeBytes() int64 {
	return int64(x.nslots)*dedupSlotBytes + int64(len(x.chunks))<<dedupChunkBits
}
