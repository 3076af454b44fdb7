package core

import "felip/internal/domain"

// Bridges for core's external tests (package core_test), which answer
// through serve.Engine and so cannot live in package core.

// DefaultIPFThreshold is the convergence threshold of a round without a
// population.
const DefaultIPFThreshold = defaultIPFThreshold

// UniformAggregator assembles the round planned for planN users with every
// grid uniform and a population of n, including n = 0, which no collection
// round produces.
func UniformAggregator(schema *domain.Schema, planN, n int, opts Options) (*Aggregator, error) {
	specs, err := BuildPlan(schema, planN, opts)
	if err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	freqs := make([][]float64, len(specs))
	for g, sp := range specs {
		f := make([]float64, sp.L())
		for i := range f {
			f[i] = 1 / float64(len(f))
		}
		freqs[g] = f
	}
	return assembleAggregator(schema, opts, specs, n, freqs, make([]int, len(specs)), opts.Epsilon)
}
