package fo

import (
	"fmt"

	"felip/internal/metrics"
)

// PartialState is the exportable aggregation state of one frequency-oracle
// aggregator: the exact integer count vector the estimator is computed from
// (per-value support counts for OLH, per-value report counts for GRR, per-bit
// counts for OUE), together with the report count it was folded from. It is
// the unit a shard server ships to the merge coordinator at round finalize.
//
// Partial states are exported *before* estimation on purpose: support-count
// folding commutes, so integer count vectors from disjoint report streams sum
// losslessly — an aggregator that imports every shard's state estimates
// float-for-float identically to one that saw every report itself. Exporting
// after estimation would not compose: the per-shard normalizations (divide by
// each shard's n) are not mergeable without reweighting error.
//
// A PartialState carries no more information than the ε-LDP reports it was
// folded from (it is a deterministic function of them), so shipping it to the
// coordinator consumes no additional privacy budget.
type PartialState struct {
	// Proto is the protocol the counts belong to.
	Proto Protocol
	// Epsilon is the privacy budget the reports were perturbed under.
	Epsilon float64
	// L is the domain size; Counts has length L, except for HR where it has
	// length 2·HRPaddedSize(L) (interleaved per-row plus/minus sign counts).
	L int
	// N is the number of reports folded into Counts.
	N int
	// Rejected is the number of out-of-range reports the aggregator refused;
	// it rides along so the coordinator can surface shard-side rejects.
	Rejected int
	// Counts is the integer count vector. For GRR it is the per-value report
	// counts (summing to N); for OLH the per-value hash-support counts; for
	// OUE the per-position bit counts; for HR the interleaved per-row sign
	// counts (Counts[2j] = +1 reports on row j, Counts[2j+1] = −1 reports).
	Counts []int64
}

// Check validates the state against the importing aggregator's parameters
// without mutating anything. Importers call it before touching their counts
// so a bad state is refused whole.
func (st PartialState) Check(proto Protocol, eps float64, L int) error {
	if st.Proto != proto {
		return fmt.Errorf("fo: partial state is %v, aggregator is %v", st.Proto, proto)
	}
	if st.Epsilon != eps {
		return fmt.Errorf("fo: partial state epsilon %v, aggregator epsilon %v", st.Epsilon, eps)
	}
	if st.L != L {
		return fmt.Errorf("fo: partial state domain %d, aggregator domain %d", st.L, L)
	}
	// HR counts live in the padded Hadamard order, two counters per row;
	// every other protocol carries one counter per domain value.
	want := L
	if proto == HR {
		want = 2 * HRPaddedSize(L)
	}
	if len(st.Counts) != want {
		return fmt.Errorf("fo: partial state carries %d counts for domain %d (%v wants %d)",
			len(st.Counts), L, proto, want)
	}
	if st.N < 0 || st.Rejected < 0 {
		return fmt.Errorf("fo: partial state with negative report counts (n=%d rejected=%d)", st.N, st.Rejected)
	}
	var sum int64
	for v, c := range st.Counts {
		if c < 0 || c > int64(st.N) {
			return fmt.Errorf("fo: partial state count[%d] = %d outside [0, %d]", v, c, st.N)
		}
		sum += c
	}
	// Each GRR report increments exactly one cell, and each HR report
	// exactly one of its row's two sign counters, so the counts must account
	// for exactly the claimed reports. (OLH/OUE reports may support any
	// number of values, so only the per-value bound applies there.)
	if (proto == GRR || proto == HR) && sum != int64(st.N) {
		return fmt.Errorf("fo: %v partial state counts sum to %d for %d reports", proto, sum, st.N)
	}
	return nil
}

// Equal reports whether two partial states carry the identical aggregation
// state — same protocol, budget, domain, report counts, and count vector.
// Archive round-trip tests use it to assert a snapshot restores the exact
// integer state that was written.
func (st PartialState) Equal(other PartialState) bool {
	if st.Proto != other.Proto || st.Epsilon != other.Epsilon ||
		st.L != other.L || st.N != other.N || st.Rejected != other.Rejected ||
		len(st.Counts) != len(other.Counts) {
		return false
	}
	for i, c := range st.Counts {
		if c != other.Counts[i] {
			return false
		}
	}
	return true
}

// clone returns a defensive copy of a count vector (nil-safe, always length L).
func cloneCounts(counts []int64, L int) []int64 {
	out := make([]int64, L)
	copy(out, counts)
	return out
}

// ExportState snapshots the aggregator's exact partial-aggregate state. The
// caller must have stopped feeding the aggregator (a sealed shard round).
func (a *GRRAggregator) ExportState() (PartialState, error) {
	return PartialState{
		Proto:    GRR,
		Epsilon:  a.eps,
		L:        a.l,
		N:        a.n,
		Rejected: a.rejected,
		Counts:   cloneCounts(a.counts, a.l),
	}, nil
}

// ImportState folds a shard's exported state into this aggregator, exactly:
// after the import it estimates as if it had received every report the shard
// did. The state is validated whole before any count is touched.
func (a *GRRAggregator) ImportState(st PartialState) error {
	if err := st.Check(GRR, a.eps, a.l); err != nil {
		return err
	}
	for v, c := range st.Counts {
		a.counts[v] += c
	}
	a.n += st.N
	a.rejected += st.Rejected
	return nil
}

// ExportState snapshots the aggregator's exact partial-aggregate state. The
// caller must have stopped feeding the aggregator (a sealed shard round).
func (a *OUEAggregator) ExportState() (PartialState, error) {
	return PartialState{
		Proto:    OUE,
		Epsilon:  a.eps,
		L:        a.l,
		N:        a.n,
		Rejected: a.rejected,
		Counts:   cloneCounts(a.counts, a.l),
	}, nil
}

// ImportState folds a shard's exported state into this aggregator, exactly.
// The state is validated whole before any count is touched.
func (a *OUEAggregator) ImportState(st PartialState) error {
	if err := st.Check(OUE, a.eps, a.l); err != nil {
		return err
	}
	for v, c := range st.Counts {
		a.counts[v] += c
	}
	a.n += st.N
	a.rejected += st.Rejected
	return nil
}

// ExportState snapshots the aggregator's exact partial-aggregate state: the
// interleaved (plus, minus) sign counts over the padded Hadamard order. The
// caller must have stopped feeding the aggregator (a sealed shard round).
func (a *HRAggregator) ExportState() (PartialState, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	counts := make([]int64, 2*a.k)
	for j := 0; j < a.k; j++ {
		counts[2*j] = a.plus[j]
		counts[2*j+1] = a.minus[j]
	}
	return PartialState{
		Proto:    HR,
		Epsilon:  a.eps,
		L:        a.l,
		N:        a.n,
		Rejected: a.rejected,
		Counts:   counts,
	}, nil
}

// ImportState folds a shard's exported sign counts into this aggregator,
// exactly: integer sign counts from disjoint report streams sum to the
// counts one aggregator folding both streams would hold, so the merged
// estimates are bit-identical to single-node folding. The state is
// validated whole before any count is touched.
func (a *HRAggregator) ImportState(st PartialState) error {
	if err := st.Check(HR, a.eps, a.l); err != nil {
		return err
	}
	a.mu.Lock()
	for j := 0; j < a.k; j++ {
		a.plus[j] += st.Counts[2*j]
		a.minus[j] += st.Counts[2*j+1]
	}
	a.n += st.N
	a.rejected += st.Rejected
	a.mu.Unlock()
	hrStateImports.Inc()
	return nil
}

// olhStateImports counts partial-state imports process-wide (the cluster
// coordinator's merge path, and every other merge).
var olhStateImports = metrics.GetCounter("fo.olh.state_imports")

// ExportState folds any pending reports and snapshots the support-count
// state. It must not run concurrently with an Estimates call on the same
// aggregator; the shard seals its round before exporting.
func (a *OLHAggregator) ExportState() (PartialState, error) {
	a.mu.Lock()
	batch := a.pending
	a.pending = nil
	a.inflight += len(batch)
	pre, mm := a.tablesLocked()
	a.mu.Unlock()
	a.foldBatch(batch, pre, mm)

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight > 0 {
		return PartialState{}, fmt.Errorf("fo: cannot export an OLH aggregator with a fold in flight")
	}
	return PartialState{
		Proto:    OLH,
		Epsilon:  a.eps,
		L:        a.l,
		N:        a.folded,
		Rejected: a.rejected,
		Counts:   cloneCounts(a.support, a.l),
	}, nil
}

// ImportState folds a shard's exported support counts into this aggregator,
// exactly: integer support counts from disjoint report streams sum to the
// counts one aggregator folding both streams would hold, so the merged
// estimates are bit-identical to single-node folding. The state is validated
// whole before any count is touched.
func (a *OLHAggregator) ImportState(st PartialState) error {
	if err := st.Check(OLH, a.eps, a.l); err != nil {
		return err
	}
	a.mu.Lock()
	if a.support == nil {
		a.support = make([]int64, a.l)
	}
	for v, c := range st.Counts {
		a.support[v] += c
	}
	a.folded += st.N
	a.rejected += st.Rejected
	a.mu.Unlock()
	olhStateImports.Inc()
	return nil
}
