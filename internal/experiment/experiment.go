// Package experiment defines and runs the paper's evaluation scenarios
// (§6): one FigureSpec per paper figure plus the ablations, a cell runner
// that generates data and queries, executes every strategy, and reports MAE,
// and a plain-text printer for the resulting series.
package experiment

import (
	"fmt"
	"math"

	"felip/internal/adaptive"
	"felip/internal/baseline/hdg"
	"felip/internal/baseline/hio"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/serve"
)

// Strategy identifies one estimation strategy in experiment output.
type Strategy string

// The strategies compared across the paper's figures.
const (
	StratOUG       Strategy = "OUG"
	StratOHG       Strategy = "OHG"
	StratOUGOLH    Strategy = "OUG-OLH"
	StratOHGOLH    Strategy = "OHG-OLH"
	StratOUGGRR    Strategy = "OUG-GRR"
	StratOHGGRR    Strategy = "OHG-GRR"
	StratHIO       Strategy = "HIO"
	StratTDG       Strategy = "TDG"
	StratHDG       Strategy = "HDG"
	StratOHGBudget Strategy = "OHG-budget"  // divides ε instead of users (§5.1 ablation)
	StratOHGFixSel Strategy = "OHG-fix-sel" // ignores true selectivity, assumes 0.5
	StratOHGEqMass Strategy = "OHG-eqmass"  // two-phase data-aware binning (§7 extension)
)

// Config is one experiment cell: a dataset, a population, a privacy budget,
// a query workload and the strategies to compare.
type Config struct {
	// Dataset is the generator name (uniform, normal, ipums-sim, loan-sim).
	Dataset string
	// Schema describes the attributes.
	Schema *domain.Schema
	// N is the population size.
	N int
	// Epsilon is the privacy budget.
	Epsilon float64
	// Selectivity is the per-attribute query selectivity s.
	Selectivity float64
	// PriorSelectivity is the selectivity prior given to FELIP's grid
	// optimizer; zero means "use the true Selectivity" (the aggregator
	// incorporating workload knowledge, §5).
	PriorSelectivity float64
	// Lambda is the query dimension λ.
	Lambda int
	// NumQueries is |Q|.
	NumQueries int
	// Seed makes the cell deterministic.
	Seed uint64
	// Strategies lists the strategies to run.
	Strategies []Strategy
}

func (c Config) withDefaults() (Config, error) {
	if c.Schema == nil {
		return c, fmt.Errorf("experiment: nil schema")
	}
	if c.Dataset == "" {
		c.Dataset = "uniform"
	}
	if c.N <= 0 {
		return c, fmt.Errorf("experiment: N must be positive")
	}
	if c.Epsilon <= 0 {
		return c, fmt.Errorf("experiment: epsilon must be positive")
	}
	if c.Selectivity == 0 {
		c.Selectivity = 0.5
	}
	if c.Lambda == 0 {
		c.Lambda = 2
	}
	if c.Lambda < 1 || c.Lambda > c.Schema.Len() {
		return c, fmt.Errorf("experiment: lambda %d outside [1,%d]", c.Lambda, c.Schema.Len())
	}
	if c.NumQueries == 0 {
		c.NumQueries = 10
	}
	if c.Seed == 0 {
		c.Seed = fo.AutoSeed()
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []Strategy{StratOUG, StratOHG, StratHIO}
	}
	return c, nil
}

// Result holds the per-strategy MAE of one cell.
type Result struct {
	// X labels the cell on its figure's x axis (e.g. "1.0" for ε).
	X string
	// MAE maps strategy → mean absolute error over the cell's queries.
	MAE map[Strategy]float64
}

// RunCell executes one experiment cell: generate the dataset, draw the query
// workload, compute exact answers, run every strategy, and measure MAE.
func RunCell(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	gen, err := dataset.ByName(cfg.Dataset)
	if err != nil {
		return Result{}, err
	}
	ds := gen.Generate(cfg.Schema, cfg.N, cfg.Seed)

	qgen, err := query.NewGenerator(cfg.Schema, cfg.Selectivity, cfg.Seed+1)
	if err != nil {
		return Result{}, err
	}
	queries, err := qgen.GenerateMany(cfg.NumQueries, cfg.Lambda)
	if err != nil {
		return Result{}, err
	}
	cols := make([][]uint16, cfg.Schema.Len())
	for i := range cols {
		cols[i] = ds.Col(i)
	}
	truth := make([]float64, len(queries))
	for i, q := range queries {
		truth[i] = query.Evaluate(q, cols)
	}

	res := Result{MAE: make(map[Strategy]float64, len(cfg.Strategies))}
	for _, strat := range cfg.Strategies {
		answers, err := runStrategy(strat, ds, cfg, queries)
		if err != nil {
			return Result{}, fmt.Errorf("experiment: %s: %w", strat, err)
		}
		mae, err := metrics.MAE(answers, truth)
		if err != nil {
			return Result{}, err
		}
		res.MAE[strat] = mae
	}
	return res, nil
}

// answerer is the common query interface of every strategy's read side.
type answerer interface {
	Answer(q query.Query) (float64, error)
}

// runStrategy runs one strategy's full collection round and answers the
// workload: FELIP rounds through serve.Engine, the baselines through their
// own aggregators. Strategies that cannot express a query (e.g. TDG/HDG
// facing an IN predicate) report the error.
func runStrategy(strat Strategy, ds *dataset.Dataset, cfg Config, queries []query.Query) ([]float64, error) {
	prior := cfg.PriorSelectivity
	if prior == 0 {
		prior = cfg.Selectivity
	}
	seed := cfg.Seed + 100

	var (
		agg   answerer
		round *core.Aggregator
		err   error
	)
	olh := fo.OLH
	grr := fo.GRR
	base := core.Options{Epsilon: cfg.Epsilon, Selectivity: prior, Seed: seed}
	switch strat {
	case StratOUG:
		base.Strategy = core.OUG
		round, err = core.Collect(ds, base)
	case StratOHG:
		base.Strategy = core.OHG
		round, err = core.Collect(ds, base)
	case StratOUGOLH:
		base.Strategy = core.OUG
		base.ForceProtocol = &olh
		round, err = core.Collect(ds, base)
	case StratOHGOLH:
		base.Strategy = core.OHG
		base.ForceProtocol = &olh
		round, err = core.Collect(ds, base)
	case StratOUGGRR:
		base.Strategy = core.OUG
		base.ForceProtocol = &grr
		round, err = core.Collect(ds, base)
	case StratOHGGRR:
		base.Strategy = core.OHG
		base.ForceProtocol = &grr
		round, err = core.Collect(ds, base)
	case StratOHGBudget:
		base.Strategy = core.OHG
		base.DivideBudget = true
		round, err = core.Collect(ds, base)
	case StratOHGFixSel:
		base.Strategy = core.OHG
		base.Selectivity = 0.5
		round, err = core.Collect(ds, base)
	case StratOHGEqMass:
		base.Strategy = core.OHG
		var ad *adaptive.Aggregator
		if ad, err = adaptive.Collect(ds, adaptive.Options{Core: base}); err == nil {
			round = ad.Inner()
		}
	case StratHIO:
		agg, err = hio.Collect(ds, hio.Options{Epsilon: cfg.Epsilon, Seed: seed})
	case StratTDG:
		agg, err = hdg.Collect(ds, hdg.Options{Variant: hdg.TDG, Epsilon: cfg.Epsilon, Seed: seed})
	case StratHDG:
		agg, err = hdg.Collect(ds, hdg.Options{Variant: hdg.HDG, Epsilon: cfg.Epsilon, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown strategy %q", strat)
	}
	if err != nil {
		return nil, err
	}
	if round != nil {
		if agg, err = serve.NewEngine(round); err != nil {
			return nil, err
		}
	}

	answers := make([]float64, len(queries))
	for i, q := range queries {
		a, err := agg.Answer(q)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("non-finite answer %v for %v", a, q)
		}
		answers[i] = a
	}
	return answers, nil
}
