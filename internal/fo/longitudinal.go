package fo

import "fmt"

// Longitudinal carries the two-stage memoized-reporting budgets (Ding et al.'s
// memoization; Arcolezi et al.'s LOLOHA splits the same way). A device first
// randomizes its true value once at EpsPerm and memoizes the result forever;
// every round it perturbs the *memoized* value with a fresh draw whose
// composed channel (memoization ∘ per-round perturbation) is exactly an
// Eps1-LDP randomized response. An observer of any single round learns Eps1;
// an observer of every round forever learns at most EpsPerm + Eps1, instead
// of the k·ε a fresh-ε reporter leaks over k rounds.
//
// The struct doubles as the wire/JSON encoding: a plan or report without the
// field (nil pointer) is the one-shot v1 path, bit-identical to today.
type Longitudinal struct {
	// EpsPerm is the permanent (memoized) stage's budget ε_perm.
	EpsPerm float64 `json:"eps_perm"`
	// Eps1 is the per-round stage's budget ε_1. The composed per-round
	// channel is exactly ε_1-LDP, so ε_1 plays the role the one-shot path's
	// ε plays: planning, aggregation and estimation all run at ε_1.
	Eps1 float64 `json:"eps1"`
}

// Validate checks the two-stage budgets. Eps1 must not exceed EpsPerm: the
// per-round stage's truthful probability p₂ = (p* − q₁)/(p₁ − q₁) leaves
// [1/L, 1] exactly when ε_1 > ε_perm, i.e. no valid perturbation exists that
// is both a proper channel and composes to ε_1.
func (l *Longitudinal) Validate() error {
	if l == nil {
		return nil
	}
	if l.EpsPerm <= 0 {
		return fmt.Errorf("fo: longitudinal eps_perm must be positive, got %v", l.EpsPerm)
	}
	if l.Eps1 <= 0 {
		return fmt.Errorf("fo: longitudinal eps1 must be positive, got %v", l.Eps1)
	}
	if l.Eps1 > l.EpsPerm {
		return fmt.Errorf("fo: longitudinal eps1 %v exceeds eps_perm %v (per-round stage would need p2 > 1)",
			l.Eps1, l.EpsPerm)
	}
	return nil
}

// String renders the budgets, or "one-shot" for nil.
func (l *Longitudinal) String() string {
	if l == nil {
		return "one-shot"
	}
	return fmt.Sprintf("eps_perm=%v eps1=%v", l.EpsPerm, l.Eps1)
}

// Equal reports whether two optional longitudinal configs agree, treating
// nil as "one-shot" (equal only to nil).
func (l *Longitudinal) Equal(other *Longitudinal) bool {
	if l == nil || other == nil {
		return l == other
	}
	return l.EpsPerm == other.EpsPerm && l.Eps1 == other.Eps1
}
