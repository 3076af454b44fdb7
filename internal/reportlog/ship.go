package reportlog

import (
	"fmt"
	"io"
)

// This file is the segment-shipping side of the write-ahead log: a primary
// serves raw log bytes from any offset (ReadFrom), and a follower verifies
// what it received frame-by-frame before trusting it (VerifySegment). The
// log's framing makes this safe to do at arbitrary byte granularity: Append
// writes whole frames in a single Write and Pos only ever advances by whole
// frames, so any [0, Pos) byte range a primary serves is a sequence of
// complete frames and two nodes holding the same byte range hold the same
// records — which is what makes a promoted follower's replayed state
// bit-identical to the primary's.

// ReadFrom returns a copy of the log's bytes in [off, Pos), together with the
// current end offset. It is the primary-side read of WAL shipping: the bytes
// are exactly what Append wrote, so a follower appending them to its own file
// reconstructs a bit-identical segment. Reading holds the log's lock (the
// file offset is shared with Append), so callers should ship in chunks rather
// than let one giant read starve ingest.
func (l *Log) ReadFrom(off int64) ([]byte, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < 0 || off > l.pos {
		return nil, l.pos, fmt.Errorf("reportlog: read offset %d outside log [0,%d]", off, l.pos)
	}
	if off == l.pos {
		return nil, l.pos, nil
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return nil, l.pos, fmt.Errorf("reportlog: %w", err)
	}
	buf := make([]byte, l.pos-off)
	_, err := io.ReadFull(l.f, buf)
	// Restore the append position before reporting any read error: the log
	// must stay writable either way.
	if _, serr := l.f.Seek(l.pos, io.SeekStart); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return nil, l.pos, fmt.Errorf("reportlog: reading [%d,%d): %w", off, l.pos, err)
	}
	return buf, l.pos, nil
}

// VerifySegment strictly parses a shipped segment's bytes: every frame's
// header, checksum, and encoding must be valid and the data must end exactly
// on a frame boundary. Unlike Open — which forgives a torn tail, because a
// local crash legitimately tears the final record — shipped bytes were whole
// frames when they left the primary, so anything short of a perfect parse is
// corruption and the segment must not be replayed. This is the "shipped
// -segment CRC chain verifies" half of the promotion invariant.
func VerifySegment(data []byte) ([]Record, error) {
	recs, _, err := scan(data)
	if err != nil {
		return nil, err
	}
	return recs, nil
}
