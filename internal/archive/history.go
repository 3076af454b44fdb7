package archive

import (
	"fmt"
	"math"
	"time"

	"felip/internal/query"
	"felip/internal/serve"
)

// engineSlot is one archived round's lazily opened serving engine, under
// per-round singleflight: the first request claims the slot and restores the
// engine outside the store lock; everyone else waits on ready. Engines are
// immutable, so an evicted engine stays valid for queries already holding it.
type engineSlot struct {
	ready   chan struct{}
	eng     *serve.Engine
	err     error
	lastUse int64
}

// Engine returns a warmed serving engine for an archived round, opening it
// from disk on first use and caching it under an LRU bound of
// MaxOpenEngines. The restored engine answers bit-identically to the engine
// that served the round live (see serve.FromSnapshot).
func (st *Store) Engine(round int) (*serve.Engine, error) {
	st.mu.Lock()
	if _, ok := st.rounds[round]; !ok {
		st.mu.Unlock()
		return nil, fmt.Errorf("archive: round %d is not archived", round)
	}
	if slot, ok := st.engines[round]; ok {
		st.useSeq++
		slot.lastUse = st.useSeq
		st.mu.Unlock()
		<-slot.ready
		return slot.eng, slot.err
	}
	slot := &engineSlot{ready: make(chan struct{})}
	st.useSeq++
	slot.lastUse = st.useSeq
	st.engines[round] = slot
	st.evictLocked(round)
	st.publishGaugesLocked()
	st.mu.Unlock()

	start := time.Now()
	slot.eng, slot.err = st.openEngine(round)
	if slot.err == nil {
		restoreMS.Set(time.Since(start).Milliseconds())
	} else {
		// Do not cache the failure: the snapshot may be repaired or rewritten,
		// and the next request should retry from disk.
		st.mu.Lock()
		if st.engines[round] == slot {
			delete(st.engines, round)
		}
		st.publishGaugesLocked()
		st.mu.Unlock()
	}
	close(slot.ready)
	return slot.eng, slot.err
}

// openEngine restores one round's engine from disk and prepays its response
// matrices, so historical queries never pay an Algorithm-3 fit inline.
func (st *Store) openEngine(round int) (*serve.Engine, error) {
	snap, err := st.load(round)
	if err != nil {
		return nil, err
	}
	eng, err := serve.FromSnapshot(snap.Aggregate)
	if err != nil {
		return nil, err
	}
	if err := eng.Warmup(); err != nil {
		return nil, err
	}
	return eng, nil
}

// evictLocked drops least-recently-used resolved engines beyond the cache
// bound. The slot being opened (keep) and slots still in flight are never
// evicted. Caller holds st.mu.
func (st *Store) evictLocked(keep int) {
	for len(st.engines) > st.opts.MaxOpenEngines {
		victim, oldest := -1, int64(0)
		for r, slot := range st.engines {
			if r == keep {
				continue
			}
			select {
			case <-slot.ready:
			default:
				continue // still opening; its claimant will use it next
			}
			if victim == -1 || slot.lastUse < oldest {
				victim, oldest = r, slot.lastUse
			}
		}
		if victim == -1 {
			return
		}
		delete(st.engines, victim)
	}
}

// dropEngineLocked invalidates a round's cached engine (rewrite, retention).
// Caller holds st.mu.
func (st *Store) dropEngineLocked(round int) {
	delete(st.engines, round)
}

// OpenEngines returns how many engines the historical plane currently holds.
func (st *Store) OpenEngines() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.engines)
}

// AnswerRange answers the query over the archived rounds in [lo, hi]
// (hi = 0 means the newest archived round), weighting each round's answer by
// its population: the estimate for the union of the rounds' users. This is
// how a stream of batches, one round each, is answered over a window.
func (st *Store) AnswerRange(q query.Query, lo, hi int) (float64, error) {
	items, err := st.rangeItems(lo, hi, nil)
	if err != nil {
		return 0, err
	}
	return weightedAnswer(q, items)
}

// AnswerDecayed answers the query over the archived rounds in [lo, hi] with
// exponential decay toward the newest selected round: round r (age a rounds)
// gets weight N_r·2^(−a/halfLife).
func (st *Store) AnswerDecayed(q query.Query, lo, hi int, halfLife float64) (float64, error) {
	if halfLife <= 0 {
		return 0, fmt.Errorf("archive: half-life must be positive, got %v", halfLife)
	}
	items, err := st.rangeItems(lo, hi, func(round, newest, n int) float64 {
		return decayWeight(n, float64(newest-round), halfLife)
	})
	if err != nil {
		return 0, err
	}
	return weightedAnswer(q, items)
}

// item is one weighted answer source: an archived round and its weight in
// the combination (its population, possibly decayed).
type item struct {
	weight float64
	answer func(query.Query) (float64, error)
}

// decayWeight is the exponential-decay weight of a round of population n at
// the given age in rounds: n·2^(−age/halfLife).
func decayWeight(n int, age, halfLife float64) float64 {
	return float64(n) * math.Exp2(-age/halfLife)
}

// weightedAnswer answers the query from every item and combines the answers
// as the weighted mean Σ wᵢ·fᵢ / Σ wᵢ. Items come in ascending round order,
// so the floating-point sum reproduces bit for bit across restarts.
func weightedAnswer(q query.Query, items []item) (float64, error) {
	var num, den float64
	for _, it := range items {
		f, err := it.answer(q)
		if err != nil {
			return 0, err
		}
		num += it.weight * f
		den += it.weight
	}
	if den == 0 {
		return 0, fmt.Errorf("archive: zero total weight")
	}
	return num / den, nil
}

// rangeItems resolves the rounds in [lo, hi] to weighted answer sources.
// weight nil = population weighting. Engines open lazily through the LRU
// cache as the combination walks the range in ascending order.
func (st *Store) rangeItems(lo, hi int, weight func(round, newest, n int) float64) ([]item, error) {
	if hi == 0 {
		hi = st.LatestRound()
	}
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("archive: invalid round range [%d, %d]", lo, hi)
	}
	st.mu.Lock()
	all := st.roundsAscLocked()
	meta := make(map[int]roundMeta, len(all))
	for _, r := range all {
		meta[r] = st.rounds[r]
	}
	st.mu.Unlock()

	var selected []int
	for _, r := range all {
		if r >= lo && r <= hi {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("archive: no archived rounds in [%d, %d]", lo, hi)
	}
	newest := selected[len(selected)-1]
	items := make([]item, 0, len(selected))
	for _, r := range selected {
		round := r
		n := meta[r].reports
		wt := float64(n)
		if weight != nil {
			wt = weight(round, newest, n)
		}
		items = append(items, item{
			weight: wt,
			answer: func(q query.Query) (float64, error) {
				eng, err := st.Engine(round)
				if err != nil {
					return 0, err
				}
				return eng.Answer(q)
			},
		})
	}
	return items, nil
}
