package core

import (
	"encoding/json"
	"fmt"
	"io"

	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/grid"
)

// GridSnapshot is the serializable state of one post-processed grid.
type GridSnapshot struct {
	AttrX   int       `json:"attr_x"`
	AttrY   int       `json:"attr_y"` // -1 for 1-D grids
	BoundsX []int     `json:"bounds_x"`
	BoundsY []int     `json:"bounds_y,omitempty"`
	Proto   string    `json:"proto"`
	Freq    []float64 `json:"freq"`
	Var0    float64   `json:"var0"`
	// ExpectedErr preserves the optimizer's minimized objective so
	// Aggregator.ExpectedError keeps working after a restore.
	ExpectedErr float64 `json:"expected_err"`
}

// Snapshot is the full serializable state of a finished collection round:
// everything needed to answer queries later without re-collecting. Perturbed
// per-user reports are NOT retained — only the post-processed aggregate
// grids, which are safe to persist under the same ε-LDP guarantee
// (post-processing of a DP output).
type Snapshot struct {
	Version       int                `json:"version"`
	Strategy      string             `json:"strategy"`
	Epsilon       float64            `json:"epsilon"`
	N             int                `json:"n"`
	Attributes    []domain.Attribute `json:"attributes"`
	Grids         []GridSnapshot     `json:"grids"`
	MatrixMaxIter int                `json:"matrix_max_iter"`
	LambdaMaxIter int                `json:"lambda_max_iter"`
}

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// Snapshot captures the aggregator's state for persistence.
func (a *Aggregator) Snapshot() Snapshot {
	s := Snapshot{
		Version:       snapshotVersion,
		Strategy:      a.opts.Strategy.String(),
		Epsilon:       a.opts.Epsilon,
		N:             a.n,
		Attributes:    a.schema.Attrs(),
		MatrixMaxIter: a.opts.MatrixMaxIter,
		LambdaMaxIter: a.opts.LambdaMaxIter,
	}
	for _, sp := range a.specs {
		gs := GridSnapshot{
			AttrX:       sp.AttrX,
			AttrY:       sp.AttrY,
			BoundsX:     sp.AxisX.Boundaries(),
			Proto:       sp.Proto.String(),
			ExpectedErr: sp.ExpectedErr,
		}
		if sp.Is1D() {
			g1 := a.grids1[sp.AttrX]
			gs.Freq = append([]float64(nil), g1.Freq...)
			gs.Var0 = a.var01[sp.AttrX]
		} else {
			gs.BoundsY = sp.AxisY.Boundaries()
			key := [2]int{sp.AttrX, sp.AttrY}
			g2 := a.grids2[key]
			gs.Freq = append([]float64(nil), g2.Freq...)
			gs.Var0 = a.var02[key]
		}
		s.Grids = append(s.Grids, gs)
	}
	return s
}

// Restore rebuilds a query-ready aggregator from a snapshot.
func Restore(s Snapshot) (*Aggregator, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d not supported (want %d)", s.Version, snapshotVersion)
	}
	schema, err := domain.NewSchema(s.Attributes...)
	if err != nil {
		return nil, err
	}
	var strategy Strategy
	switch s.Strategy {
	case "OUG":
		strategy = OUG
	case "OHG":
		strategy = OHG
	default:
		return nil, fmt.Errorf("core: snapshot has unknown strategy %q", s.Strategy)
	}
	if s.Epsilon <= 0 || s.N < 1 {
		return nil, fmt.Errorf("core: snapshot has invalid epsilon %v / n %d", s.Epsilon, s.N)
	}
	opts, err := Options{
		Strategy:      strategy,
		Epsilon:       s.Epsilon,
		MatrixMaxIter: s.MatrixMaxIter,
		LambdaMaxIter: s.LambdaMaxIter,
	}.withDefaults()
	if err != nil {
		return nil, err
	}

	agg := &Aggregator{
		schema: schema,
		opts:   opts,
		n:      s.N,
		grids1: make(map[int]*grid.Grid1D),
		grids2: make(map[[2]int]*grid.Grid2D),
		var01:  make(map[int]float64),
		var02:  make(map[[2]int]float64),
	}
	for i, gs := range s.Grids {
		var proto fo.Protocol
		switch gs.Proto {
		case "GRR":
			proto = fo.GRR
		case "OLH":
			proto = fo.OLH
		case "OUE":
			proto = fo.OUE
		default:
			return nil, fmt.Errorf("core: grid %d: unknown protocol %q", i, gs.Proto)
		}
		if gs.AttrX < 0 || gs.AttrX >= schema.Len() {
			return nil, fmt.Errorf("core: grid %d: attr_x %d out of range", i, gs.AttrX)
		}
		axX, err := grid.NewCustomAxis(schema.Attr(gs.AttrX).Size, gs.BoundsX)
		if err != nil {
			return nil, fmt.Errorf("core: grid %d: %w", i, err)
		}
		sp := GridSpec{AttrX: gs.AttrX, AttrY: gs.AttrY, AxisX: axX, Proto: proto, ExpectedErr: gs.ExpectedErr}
		if gs.AttrY >= 0 {
			if gs.AttrY >= schema.Len() {
				return nil, fmt.Errorf("core: grid %d: attr_y %d out of range", i, gs.AttrY)
			}
			axY, err := grid.NewCustomAxis(schema.Attr(gs.AttrY).Size, gs.BoundsY)
			if err != nil {
				return nil, fmt.Errorf("core: grid %d: %w", i, err)
			}
			sp.AxisY = axY
		} else {
			sp.AttrY = -1
		}
		if len(gs.Freq) != sp.L() {
			return nil, fmt.Errorf("core: grid %d: freq length %d != cells %d", i, len(gs.Freq), sp.L())
		}
		freq := append([]float64(nil), gs.Freq...)
		if sp.Is1D() {
			g1 := grid.NewGrid1D(sp.AttrX, sp.AxisX)
			if err := g1.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids1[sp.AttrX] = g1
			agg.var01[sp.AttrX] = gs.Var0
		} else {
			key := [2]int{sp.AttrX, sp.AttrY}
			g2 := grid.NewGrid2D(sp.AttrX, sp.AttrY, sp.AxisX, sp.AxisY)
			if err := g2.SetFreq(freq); err != nil {
				return nil, err
			}
			agg.grids2[key] = g2
			agg.var02[key] = gs.Var0
		}
		agg.specs = append(agg.specs, sp)
	}
	if len(agg.specs) == 0 {
		return nil, fmt.Errorf("core: snapshot has no grids")
	}
	agg.buildIndex()
	return agg, nil
}

// Save writes the aggregator's snapshot as JSON.
func (a *Aggregator) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a.Snapshot())
}

// Load reads a JSON snapshot and rebuilds the aggregator.
func Load(r io.Reader) (*Aggregator, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return Restore(s)
}
