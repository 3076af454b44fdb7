package fo

import "fmt"

// Every caller outside this package needs two operations of a frequency
// oracle: Ψ perturbs a value into a report, and Φ folds reports into integer
// counts that export, import and estimate. For GRR, OLH and HR the report
// travels as one (value, seed) pair — the pair core.Report, frame records,
// JSON reports and WAL records carry:
//
//	GRR  value = the reported cell, seed unused (0)
//	OLH  value = the GRR-perturbed hash in [0, g), seed = the hash function
//	HR   value = the Hadamard row in [0, K), seed = the sign bit (0: +1, 1: −1)
//
// Perturber and Aggregator are those two ends over the pair, so a caller
// names a protocol only where it constructs one. OUE's report is an L-bit
// vector with no pair form; it keeps its typed Client/Aggregator only.

// Perturber is the user side Ψ of an oracle whose report is a (value, seed)
// pair.
type Perturber interface {
	// PerturbReport perturbs the private value v ∈ [0, L) into its report.
	PerturbReport(v int, r *Rand) (value int, seed uint64, err error)
}

// Aggregator is the server side Φ of an oracle whose report is a
// (value, seed) pair.
type Aggregator interface {
	// CheckReport is the protocol's one valid-report rule: nil iff Ψ could
	// have produced the pair under this aggregator's ε and L.
	CheckReport(value int, seed uint64) error
	// AddReport folds one report; a pair CheckReport refuses is counted in
	// Rejected instead.
	AddReport(value int, seed uint64)
	// N returns the number of reports folded so far.
	N() int
	// Rejected returns the number of reports AddReport refused.
	Rejected() int
	// Estimates returns the unbiased frequency estimate of every value.
	Estimates() []float64
	// ExportState and ImportState are the one merge: integer counts from
	// disjoint report streams sum exactly (see PartialState).
	ExportState() (PartialState, error)
	ImportState(PartialState) error
}

// HasPairReport reports whether the protocol's report travels as the
// (value, seed) pair: GRR, OLH and HR. OUE's L-bit report has no pair form,
// so no wire path carries it.
func (p Protocol) HasPairReport() bool { return p == GRR || p == OLH || p == HR }

// ParseProtocol is the inverse of Protocol.String.
func ParseProtocol(name string) (Protocol, error) {
	for _, p := range []Protocol{GRR, OLH, OUE, HR} {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fo: unknown protocol %q", name)
}

// NewPerturber returns the protocol's user-side client for domain size L at
// budget eps. OUE is refused: its report has no pair form.
func NewPerturber(p Protocol, eps float64, L int) (Perturber, error) {
	var c Perturber
	var err error
	switch p {
	case GRR:
		c, err = NewGRRClient(eps, L)
	case OLH:
		c, err = NewOLHClient(eps, L)
	case HR:
		c, err = NewHRClient(eps, L)
	default:
		return nil, fmt.Errorf("fo: protocol %v has no (value, seed) report form", p)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewAggregator returns the protocol's server-side aggregator for domain size
// L at budget eps. An OLH aggregator is the buffered one, which folds once at
// Estimates time: the simulated rounds want that, and core.Collector builds
// the streaming one itself. OUE is refused like in NewPerturber.
func NewAggregator(p Protocol, eps float64, L int) (Aggregator, error) {
	if err := validate(eps, L); err != nil {
		return nil, err
	}
	switch p {
	case GRR:
		return NewGRRAggregator(eps, L), nil
	case OLH:
		return NewOLHAggregator(eps, L), nil
	case HR:
		return NewHRAggregator(eps, L), nil
	default:
		return nil, fmt.Errorf("fo: protocol %v has no (value, seed) report form", p)
	}
}
