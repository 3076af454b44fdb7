// Package core implements FELIP (paper §5): locally differentially private
// frequency estimation on multidimensional datasets with categorical and
// numerical attributes, through optimized 1-D/2-D grids, per-grid adaptive
// frequency oracles and consistency post-processing. Answering queries from
// the resulting grids — response matrices (§5.5) and λ-D estimation (§5.6) —
// is package serve's job.
//
// The two strategies of the paper are provided: Optimized Uniform Grid (OUG,
// 2-D grids only, uniformity assumption inside cells) and Optimized Hybrid
// Grid (OHG, auxiliary 1-D grids for numerical attributes refine the 2-D
// estimates via response matrices).
//
// The entry point is Collect, which simulates a full collection round over a
// dataset — planning the grids, partitioning the population, perturbing every
// user's report client-side under ε-LDP, aggregating, and post-processing —
// and returns the round's Aggregator; serve.NewEngine answers queries from it.
package core

import (
	"fmt"

	"felip/internal/fo"
)

// Strategy selects between the paper's two grid strategies.
type Strategy uint8

const (
	// OUG (Optimized Uniform Grid) collects one 2-D grid per attribute pair
	// and answers queries under the uniformity assumption.
	OUG Strategy = iota
	// OHG (Optimized Hybrid Grid) adds 1-D grids for numerical attributes and
	// refines answers through response matrices.
	OHG
)

// String returns "OUG" or "OHG".
func (s Strategy) String() string {
	switch s {
	case OUG:
		return "OUG"
	case OHG:
		return "OHG"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ReportMode re-exports fo.ReportMode: how the population spends its budget
// across the plan's grids. The zero value is ModeFELIP, the paper's design.
type ReportMode = fo.ReportMode

// The three reporting designs (see fo.ReportMode).
const (
	ModeFELIP = fo.ModeFELIP
	ModeSPL   = fo.ModeSPL
	ModeRSFD  = fo.ModeRSFD
)

// Options configures one FELIP collection round.
type Options struct {
	// Strategy is OUG or OHG.
	Strategy Strategy
	// Epsilon is the per-user privacy budget ε (> 0).
	Epsilon float64
	// Selectivity is the aggregator's prior on per-attribute query
	// selectivity used when sizing grids (paper §5, default 0.5).
	Selectivity float64
	// SelectivityByAttr optionally overrides Selectivity per attribute.
	SelectivityByAttr map[int]float64
	// Alpha1 and Alpha2 are the non-uniformity constants (default 0.7, 0.03).
	Alpha1, Alpha2 float64
	// Seed makes the whole round deterministic. Zero draws a fresh seed.
	Seed uint64
	// ForceProtocol disables the adaptive frequency oracle and uses the given
	// protocol for every grid (the OUG-OLH / OHG-OLH ablations of §6.3).
	ForceProtocol *fo.Protocol
	// Mode selects the reporting design: FELIP divides users across grids
	// (the paper's choice, Theorem 5.1, and the zero-value default), SPL
	// divides the budget ε/m across all grids, RS+FD sends every grid from
	// every user at the amplified ε' with fake data on the unsampled grids.
	// Non-FELIP modes plan their grids with mode-aware noise formulas.
	Mode ReportMode
	// Longitudinal enables memoized two-stage reporting for devices that
	// report across many rounds (see internal/longitudinal): a permanent
	// ε_perm randomization memoized per device, plus a per-round perturbation
	// whose composed channel is exactly GRR(Epsilon). Under longitudinal,
	// Epsilon IS the per-round budget ε_1 — planning, aggregation and
	// estimation all run at it, with GRR forced on every grid (the two-stage
	// chain is a GRR↦GRR composition). Eps1, if zero, is filled from Epsilon;
	// setting both to different values is an error. Longitudinal requires
	// Mode == ModeFELIP (one report per device per round) and no DivideBudget.
	// Nil is the one-shot path, bit-identical to v1 behavior.
	Longitudinal *fo.Longitudinal
	// DivideBudget reproduces the §5.1 partitioning ablation in Collect:
	// every user reports every grid with ε/m *on the FELIP-shaped plan*, so
	// the comparison isolates the division strategy at matched grids. This
	// differs from Mode == ModeSPL, which re-plans the grids for the ε/m
	// per-report budget. The incremental Collector has no matched-plan
	// ablation: it treats DivideBudget as Mode == ModeSPL. Combining
	// DivideBudget with a non-FELIP Mode is an error.
	DivideBudget bool
	// PostProcessRounds is the number of consistency ↔ Norm-Sub alternations
	// (§5.4). Default 3.
	PostProcessRounds int
	// MatrixMaxIter caps the weighted-update sweeps when building a response
	// matrix (Algorithm 3). Default 50.
	MatrixMaxIter int
	// LambdaMaxIter caps the IPF sweeps of λ-D estimation (Algorithm 4).
	// Default 100.
	LambdaMaxIter int
	// MarginalHint optionally supplies an estimated per-value marginal for
	// numerical attributes (keyed by schema index, length = domain size).
	// When present, the planner bins that attribute's axes equi-mass at the
	// hinted quantiles instead of equal width — the paper's §7 extension to
	// avoid cells with low true counts. Package adaptive produces the hints
	// from a first collection phase.
	MarginalHint map[int][]float64
	// Deprecated: ignored. The incremental Collector always folds OLH
	// reports into support counts as they arrive, and the simulated Collect
	// path folds once at estimation time.
	StreamingAggregation bool
}

// withDefaults validates and normalizes the options.
func (o Options) withDefaults() (Options, error) {
	if o.Epsilon <= 0 {
		return o, fmt.Errorf("core: epsilon must be positive, got %v", o.Epsilon)
	}
	if o.Strategy != OUG && o.Strategy != OHG {
		return o, fmt.Errorf("core: unknown strategy %v", o.Strategy)
	}
	switch o.Mode {
	case fo.ModeFELIP, fo.ModeSPL, fo.ModeRSFD:
	default:
		return o, fmt.Errorf("core: unknown report mode %v", o.Mode)
	}
	if o.DivideBudget && o.Mode != fo.ModeFELIP {
		return o, fmt.Errorf("core: DivideBudget conflicts with mode %v", o.Mode)
	}
	if o.Longitudinal != nil {
		if o.Mode != fo.ModeFELIP {
			return o, fmt.Errorf("core: longitudinal reporting requires mode FELIP, got %v", o.Mode)
		}
		if o.DivideBudget {
			return o, fmt.Errorf("core: longitudinal reporting conflicts with DivideBudget")
		}
		if o.ForceProtocol != nil && *o.ForceProtocol != fo.GRR {
			return o, fmt.Errorf("core: longitudinal reporting is a GRR two-stage chain; cannot force %v", *o.ForceProtocol)
		}
		// Copy before filling defaults so the caller's struct is never mutated.
		l := *o.Longitudinal
		if l.Eps1 == 0 {
			l.Eps1 = o.Epsilon
		}
		if l.Eps1 != o.Epsilon {
			return o, fmt.Errorf("core: longitudinal eps1 %v disagrees with Epsilon %v (Epsilon is the per-round budget)",
				l.Eps1, o.Epsilon)
		}
		if err := (&l).Validate(); err != nil {
			return o, err
		}
		o.Longitudinal = &l
	}
	if o.Selectivity == 0 {
		o.Selectivity = 0.5
	}
	if o.Selectivity < 0 || o.Selectivity > 1 {
		return o, fmt.Errorf("core: selectivity %v outside (0,1]", o.Selectivity)
	}
	if o.Alpha1 == 0 {
		o.Alpha1 = 0.7
	}
	if o.Alpha2 == 0 {
		o.Alpha2 = 0.03
	}
	if o.Seed == 0 {
		o.Seed = fo.AutoSeed()
	}
	if o.PostProcessRounds <= 0 {
		o.PostProcessRounds = 3
	}
	if o.MatrixMaxIter <= 0 {
		o.MatrixMaxIter = 50
	}
	if o.LambdaMaxIter <= 0 {
		o.LambdaMaxIter = 100
	}
	return o, nil
}

// selectivityFor returns the sizing prior for one attribute.
func (o Options) selectivityFor(attr int) float64 {
	if s, ok := o.SelectivityByAttr[attr]; ok && s > 0 && s <= 1 {
		return s
	}
	return o.Selectivity
}
