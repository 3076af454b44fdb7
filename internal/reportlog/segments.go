package reportlog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segments names the per-round write-ahead log segment chain of one server:
// round 1 lives in the base file, round k in <base>.r<k>. Segments
// centralizes the naming so the server's recovery, its deletion rule and
// the follower's shipping all agree on which file holds which round.
type Segments struct {
	base string
}

// NewSegments returns the segment chain rooted at base.
func NewSegments(base string) *Segments {
	return &Segments{base: base}
}

// Base returns the chain's root path (round 1's segment).
func (s *Segments) Base() string { return s.base }

// Path returns the segment file path for the given round.
func (s *Segments) Path(round int) string {
	if round == 1 {
		return s.base
	}
	return fmt.Sprintf("%s.r%d", s.base, round)
}

// Open opens (creating if absent) the given round's segment, replaying its
// intact records like Open does.
func (s *Segments) Open(round int) (*Log, []Record, error) {
	return Open(s.Path(round))
}

// Existing returns the rounds whose segment files are present on disk, in
// ascending order. Gaps are legal here: once the archive holds rounds 1..k
// their segments are deleted, leaving only the tail. Whether a gap is legal
// in a chain being replayed is the server's call.
func (s *Segments) Existing() ([]int, error) {
	dir, name := filepath.Split(s.base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reportlog: listing segments: %w", err)
	}
	var rounds []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case e.Name() == name:
			rounds = append(rounds, 1)
		case strings.HasPrefix(e.Name(), name+".r"):
			k, err := strconv.Atoi(strings.TrimPrefix(e.Name(), name+".r"))
			if err != nil || k < 2 {
				continue // not one of ours
			}
			rounds = append(rounds, k)
		}
	}
	sort.Ints(rounds)
	return rounds, nil
}

// RemoveIf deletes every segment file whose round drop selects and returns
// the rounds it removed. The caller owns the safety rule; the server's is
// that a segment goes only once the archive durably holds its own round. The
// containing directory is synced so the removals themselves are durable.
func (s *Segments) RemoveIf(drop func(round int) bool) ([]int, error) {
	existing, err := s.Existing()
	if err != nil {
		return nil, err
	}
	var removed []int
	for _, k := range existing {
		if !drop(k) {
			continue
		}
		if err := os.Remove(s.Path(k)); err != nil {
			return removed, fmt.Errorf("reportlog: removing segment %d: %w", k, err)
		}
		removed = append(removed, k)
	}
	if len(removed) > 0 {
		if err := syncDir(filepath.Dir(s.base)); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("reportlog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("reportlog: syncing %s: %w", dir, err)
	}
	return nil
}
