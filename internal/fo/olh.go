package fo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"felip/internal/metrics"
)

// olhHash maps value v into [0, g) under the hash function identified by
// seed. The family {H_seed} is a 64-bit mixing family with negligible
// collision bias, standing in for the universal family H of the paper.
func olhHash(seed uint64, v int, g uint64) uint64 {
	return splitmix64(seed^(uint64(v)+1)*0xD6E8FEB86659FD93) % g
}

// OLHHash exposes the OLH hash family for protocols that run local hashing
// over value identifiers outside a dense [0, L) domain (the HIO baseline
// hashes k-dimensional interval tuples). It maps (seed, vid) into [0, g).
func OLHHash(seed, vid uint64, g int) int {
	return int(splitmix64(seed^(vid+1)*0xD6E8FEB86659FD93) % uint64(g))
}

// MixID folds a component into a running 64-bit identifier; used to build
// collision-resistant ids for tuples of interval indexes.
func MixID(acc, component uint64) uint64 {
	return splitmix64(acc ^ (component+0x9E3779B97F4A7C15)*0xD6E8FEB86659FD93)
}

// OLHReport is one user's OLH report: the identifier of the hash function the
// user drew (its seed) and the GRR-perturbed hash of their value.
type OLHReport struct {
	// Seed identifies the user's hash function H ∈ ℍ.
	Seed uint64
	// Value is Ψ_GRR(H(v)) ∈ [0, g).
	Value uint8
}

// OLHClient is the user-side algorithm Ψ_OLH (paper §2.2.2): hash the value
// into a domain of size g = ⌈e^ε⌉+1, then apply GRR with the full budget ε to
// the hashed value, and report ⟨H, Ψ_GRR(H(v))⟩.
type OLHClient struct {
	eps float64
	l   int
	g   int
	p   float64
}

// NewOLHClient returns an OLH perturbation client for domain size L.
func NewOLHClient(eps float64, L int) (*OLHClient, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	g := OptimalG(eps)
	ee := math.Exp(eps)
	return &OLHClient{
		eps: eps,
		l:   L,
		g:   g,
		p:   ee / (ee + float64(g) - 1),
	}, nil
}

// OptimalG returns the variance-minimizing hash range g = ⌈e^ε⌉ + 1,
// capped below at 2 (a hash into a single bucket carries no information).
func OptimalG(eps float64) int {
	gf := math.Ceil(math.Exp(eps)) + 1
	// Reports store the hashed value in a byte; cap g accordingly. ε ≥ ~5.5
	// would exceed the cap, at which point GRR dominates OLH anyway.
	if gf > 255 || math.IsInf(gf, 1) {
		return 255
	}
	g := int(gf)
	if g < 2 {
		g = 2
	}
	return g
}

// Epsilon returns the privacy budget.
func (c *OLHClient) Epsilon() float64 { return c.eps }

// L returns the original domain size.
func (c *OLHClient) L() int { return c.l }

// G returns the hash range g.
func (c *OLHClient) G() int { return c.g }

// Perturb applies Ψ_OLH to the private value v: draws a fresh hash function
// (seed), hashes v into [0,g), perturbs the hash with GRR(ε) over [0,g).
func (c *OLHClient) Perturb(v int, r *Rand) (OLHReport, error) {
	if v < 0 || v >= c.l {
		return OLHReport{}, fmt.Errorf("fo: OLH value %d outside domain [0,%d)", v, c.l)
	}
	seed := r.Uint64()
	h := int(olhHash(seed, v, uint64(c.g)))
	rep := h
	if r.Float64() >= c.p {
		x := r.IntN(c.g - 1)
		if x >= h {
			x++
		}
		rep = x
	}
	return OLHReport{Seed: seed, Value: uint8(rep)}, nil
}

// Kernel instruments (see internal/metrics): fold throughput and estimation
// latency, surfaced by the HTTP API's /v1/status.
var (
	olhFoldTimer     = metrics.GetTimer("fo.olh.fold")
	olhFoldReports   = metrics.GetCounter("fo.olh.fold_reports")
	olhEstimateTimer = metrics.GetTimer("fo.olh.estimate")
	olhMerges        = metrics.GetCounter("fo.olh.merges")
	olhRejectedTotal = metrics.GetCounter("fo.olh.rejected")
)

// foldParallelMin is the fold size (reports × domain values, i.e. hash
// evaluations) below which the worker fan-out costs more than it saves.
const foldParallelMin = 1 << 18

// streamFoldBatch is the pending-buffer size at which a streaming aggregator
// folds; it amortizes the O(L) fold sweep over a batch of reports while
// keeping the buffer — and therefore memory — O(1) in n.
const streamFoldBatch = 512

// OLHAggregator is the server-side algorithm Φ_OLH as a parallel, mergeable,
// memory-bounded kernel. Reports fold into a per-value support-count vector
// C(v) = |{j : H_j(v) = x_j}|; Estimates converts the counts into the
// unbiased frequency estimates (C(v)/n − 1/g) / (p − 1/g).
//
// The caller's constructor picks when the fold runs. A streaming aggregator
// (NewOLHAggregatorStreaming, what core.Collector builds) folds reports as
// they arrive, batch by batch, so memory stays O(L) instead of O(n). A
// buffered one (NewOLHAggregator, what the simulated paths build) queues
// reports in O(1) Adds and runs the O(n·L) fold once at Estimates time,
// fanned out across GOMAXPROCS workers over disjoint domain ranges: one
// fold over a mega-domain beats batches that each sweep the whole domain.
//
// Because the support counts are integers and every report's contribution is
// folded exactly once, the kernel is bit-deterministic: buffered, streaming,
// parallel, and k-way Merge'd aggregations of the same report multiset all
// produce float-for-float identical estimates, equal to the sequential
// reference (OLHReferenceEstimates).
//
// An OLHAggregator is safe for concurrent use. Reports added concurrently
// with an Estimates call may or may not be included in that call's output.
type OLHAggregator struct {
	eps float64
	l   int
	g   int

	mu       sync.Mutex
	pending  []OLHReport // reports not yet folded
	support  []int64     // folded support counts, nil until first fold
	folded   int         // reports folded into support
	inflight int         // reports checked out by an in-progress fold
	rejected int         // out-of-range reports refused by Add
	foldAt   int         // fold when len(pending) reaches this (0: only at Estimates)
	pre      []uint64    // premultiplied per-value hash constants, built lazily
	fm       fastMod     // exact multiply-based reduction mod g
}

// NewOLHAggregator returns an empty buffered aggregator for domain size L:
// Add queues reports and the fold runs at Estimates time.
func NewOLHAggregator(eps float64, L int) *OLHAggregator {
	return &OLHAggregator{eps: eps, l: L, g: OptimalG(eps)}
}

// NewOLHAggregatorStreaming returns an empty streaming aggregator for domain
// size L: reports fold into the support vector as they arrive (in batches of
// streamFoldBatch), so memory is O(L) regardless of how many reports the
// round collects.
func NewOLHAggregatorStreaming(eps float64, L int) *OLHAggregator {
	a := NewOLHAggregator(eps, L)
	a.foldAt = streamFoldBatch
	return a
}

// tablesLocked lazily builds the shared fold tables. Callers hold a.mu; the
// returned slices are read-only after publication.
func (a *OLHAggregator) tablesLocked() ([]uint64, fastMod) {
	if a.pre == nil {
		pre := make([]uint64, a.l)
		for v := range pre {
			pre[v] = (uint64(v) + 1) * 0xD6E8FEB86659FD93
		}
		a.fm = newFastMod(uint64(a.g))
		a.pre = pre
	}
	return a.pre, a.fm
}

// Add records one user report. A report whose perturbed value lies outside
// [0, g) cannot have been produced by Ψ_OLH; it is counted as rejected
// (never silently folded, which would bias every estimate downward).
func (a *OLHAggregator) Add(rep OLHReport) {
	if uint64(rep.Value) >= uint64(a.g) {
		a.mu.Lock()
		a.rejected++
		a.mu.Unlock()
		olhRejectedTotal.Inc()
		return
	}
	a.mu.Lock()
	a.pending = append(a.pending, rep)
	if a.foldAt == 0 || len(a.pending) < a.foldAt {
		a.mu.Unlock()
		return
	}
	batch := a.pending
	a.pending = nil
	a.inflight += len(batch)
	pre, fm := a.tablesLocked()
	a.mu.Unlock()
	a.foldBatch(batch, pre, fm)
}

// foldBatch folds a checked-out batch into the support vector. The heavy
// O(len(batch)·L) sweep runs outside a.mu so N, Rejected and concurrent Adds
// stay responsive; only the final integer merge takes the lock.
func (a *OLHAggregator) foldBatch(batch []OLHReport, pre []uint64, fm fastMod) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	local := make([]int64, a.l)
	foldReports(local, batch, pre, fm)
	a.mu.Lock()
	if a.support == nil {
		a.support = local
	} else {
		for v, c := range local {
			a.support[v] += c
		}
	}
	a.folded += len(batch)
	a.inflight -= len(batch)
	a.mu.Unlock()
	olhFoldTimer.Observe(time.Since(start))
	olhFoldReports.Add(int64(len(batch)))
}

// foldReports adds each report's support to the vector: support[v] gets one
// count per report j with H_j(v) = x_j. Workers split the domain into
// disjoint ranges, so they share the read-only report slice but never write
// the same element — no per-worker copies, no merge step, and integer
// addition keeps the outcome independent of scheduling.
func foldReports(support []int64, reports []OLHReport, pre []uint64, fm fastMod) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(support) {
		workers = len(support)
	}
	if workers < 2 || len(reports)*len(support) < foldParallelMin {
		foldRange(support, reports, pre, fm)
		return
	}
	step := (len(support) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(support); lo += step {
		hi := min(lo+step, len(support))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			foldRange(support[lo:hi], reports, pre[lo:hi], fm)
		}(lo, hi)
	}
	wg.Wait()
}

// foldRange is the sequential inner kernel over one domain range. It computes
// exactly olhHash(seed, v, g) == value per pair, with the (v+1)·C multiply
// precomputed in pre and the mod-g division replaced by the exact
// multiply-based reduction — bit-identical support counts, several times
// fewer cycles per hash. The match test is branchless: a hash matches with
// probability 1/g, far too often for the branch predictor, so the hit is
// computed arithmetically ((d−1)>>63 is 1 iff d == 0, exact because
// d = hash mod g XOR value < 2^63).
func foldRange(support []int64, reports []OLHReport, pre []uint64, fm fastMod) {
	pre = pre[:len(support)]
	if fm.pow2 {
		mask := fm.mask
		for _, rep := range reports {
			seed := rep.Seed
			val := uint64(rep.Value)
			for v, pv := range pre {
				d := (splitmix64(seed^pv) & mask) ^ val
				support[v] += int64((d - 1) >> 63)
			}
		}
		return
	}
	for _, rep := range reports {
		seed := rep.Seed
		val := uint64(rep.Value)
		for v, pv := range pre {
			d := fm.mod(splitmix64(seed^pv)) ^ val
			support[v] += int64((d - 1) >> 63)
		}
	}
}

// N returns the number of reports recorded so far.
func (a *OLHAggregator) N() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.folded + a.inflight + len(a.pending)
}

// Rejected returns the number of out-of-range reports Add refused.
func (a *OLHAggregator) Rejected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected
}

// Merge folds another aggregator's state into this one, exactly: the merged
// aggregator estimates as if it had received every report both shards did.
// Both must share ε and L. The other aggregator is left unchanged; it must
// not have an Estimates call in flight.
func (a *OLHAggregator) Merge(other *OLHAggregator) error {
	if other == a {
		return fmt.Errorf("fo: cannot merge an OLH aggregator with itself")
	}
	if a.eps != other.eps || a.l != other.l {
		return fmt.Errorf("fo: merging incompatible OLH aggregators (eps %v/%v, L %d/%d)",
			a.eps, other.eps, a.l, other.l)
	}
	other.mu.Lock()
	if other.inflight > 0 {
		other.mu.Unlock()
		return fmt.Errorf("fo: cannot merge an OLH aggregator with estimation in flight")
	}
	pending := append([]OLHReport(nil), other.pending...)
	var support []int64
	if other.support != nil {
		support = append([]int64(nil), other.support...)
	}
	folded := other.folded
	rejected := other.rejected
	other.mu.Unlock()

	a.mu.Lock()
	a.pending = append(a.pending, pending...)
	if support != nil {
		if a.support == nil {
			a.support = support
		} else {
			for v, c := range support {
				a.support[v] += c
			}
		}
	}
	a.folded += folded
	a.rejected += rejected
	a.mu.Unlock()
	olhMerges.Inc()
	return nil
}

// Estimates returns the unbiased frequency estimate for every domain value.
// Pending reports are folded first — O(pending·L) hash evaluations, fanned
// out across GOMAXPROCS workers. Returns a zero vector with no reports.
func (a *OLHAggregator) Estimates() []float64 {
	start := time.Now()
	a.mu.Lock()
	batch := a.pending
	a.pending = nil
	a.inflight += len(batch)
	pre, fm := a.tablesLocked()
	a.mu.Unlock()
	a.foldBatch(batch, pre, fm)

	out := make([]float64, a.l)
	a.mu.Lock()
	n := a.folded
	if n > 0 {
		ee := math.Exp(a.eps)
		p := ee / (ee + float64(a.g) - 1)
		invg := 1 / float64(a.g)
		nf := float64(n)
		for v := range out {
			out[v] = (float64(a.support[v])/nf - invg) / (p - invg)
		}
	}
	a.mu.Unlock()
	olhEstimateTimer.Observe(time.Since(start))
	return out
}

// OLHReferenceEstimates is the sequential Φ_OLH this kernel replaced: one
// report at a time, hardware division for the mod-g reduction. It is kept as
// the correctness oracle — equivalence tests pin the kernel's output to it
// bit for bit — and as the baseline the benchmark harness measures speedup
// against.
func OLHReferenceEstimates(eps float64, L int, reports []OLHReport) []float64 {
	out := make([]float64, L)
	n := len(reports)
	if n == 0 {
		return out
	}
	gi := OptimalG(eps)
	g := uint64(gi)
	support := make([]int64, L)
	for _, rep := range reports {
		val := uint64(rep.Value)
		seed := rep.Seed
		for v := 0; v < L; v++ {
			if olhHash(seed, v, g) == val {
				support[v]++
			}
		}
	}
	ee := math.Exp(eps)
	p := ee / (ee + float64(gi) - 1)
	invg := 1 / float64(gi)
	nf := float64(n)
	for v := range out {
		out[v] = (float64(support[v])/nf - invg) / (p - invg)
	}
	return out
}
