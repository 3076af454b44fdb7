// Selectivity prior: FELIP lets the aggregator exploit knowledge of the
// query workload's selectivity when sizing grids (paper §5, contribution 3;
// §5.8). A wide range query touches many cells and every touched cell
// contributes perturbation noise, so when the aggregator knows the workload
// is broad (here s = 0.9) the optimizer picks coarser grids than the fixed
// s = 0.5 assumption TDG/HDG hard-code — and the accumulated noise drops.
//
// The example answers the same broad workload from two OHG collections, one
// sized with the true selectivity and one with the 0.5 default, averaged
// over several collection rounds to smooth perturbation noise.
//
// Run with: go run ./examples/selectivity
package main

import (
	"fmt"
	"log"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/metrics"
	"felip/internal/query"
	"felip/internal/serve"
)

func main() {
	const (
		n          = 150_000
		trueSel    = 0.9 // the analyst's queries are broad: 90% of each domain
		numQueries = 30
		rounds     = 3
	)
	schema := dataset.MixedSchema(3, 256, 3, 8)
	users := dataset.NewIPUMSSim().Generate(schema, n, 31)

	qgen, err := query.NewGenerator(schema, trueSel, 63)
	if err != nil {
		log.Fatal(err)
	}
	workload, err := qgen.GenerateMany(numQueries, 2)
	if err != nil {
		log.Fatal(err)
	}
	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = users.Col(i)
	}
	truth := make([]float64, len(workload))
	for i, q := range workload {
		truth[i] = query.Evaluate(q, cols)
	}

	run := func(prior float64, seed uint64, report bool) float64 {
		agg, err := core.Collect(users, core.Options{
			Strategy:    core.OHG,
			Epsilon:     1.0,
			Selectivity: prior,
			Seed:        seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		if report {
			for _, sp := range agg.Specs() {
				if sp.Is1D() {
					fmt.Printf("  prior %.1f → 1-D grid over num0 has %d cells\n", prior, sp.L())
					break
				}
			}
		}
		eng, err := serve.NewEngine(agg)
		if err != nil {
			log.Fatal(err)
		}
		answers := make([]float64, len(workload))
		for i, q := range workload {
			a, err := eng.Answer(q)
			if err != nil {
				log.Fatal(err)
			}
			answers[i] = a
		}
		mae, _ := metrics.MAE(answers, truth)
		return mae
	}

	fmt.Printf("selectivity example: n=%d, ε=1, %d random 2-D queries at s=%.1f, %d rounds\n\n",
		n, numQueries, trueSel, rounds)

	var maePrior, maeFixed float64
	for r := 0; r < rounds; r++ {
		seed := uint64(17 + 1000*r)
		maePrior += run(trueSel, seed, r == 0)
		maeFixed += run(0.5, seed, r == 0)
	}
	maePrior /= rounds
	maeFixed /= rounds

	fmt.Printf("\n%-36s %12s\n", "grid sizing", "workload MAE")
	fmt.Printf("%-36s %12.5f\n", "true selectivity prior (s=0.9)", maePrior)
	fmt.Printf("%-36s %12.5f\n", "fixed 0.5 assumption (TDG/HDG)", maeFixed)

	if maePrior < maeFixed {
		imp := 100 * (maeFixed - maePrior) / maeFixed
		fmt.Printf("\nknowing the workload's selectivity cut MAE by %.0f%%:\n", imp)
		fmt.Println("broad queries sum many cells, so the optimizer trades granularity")
		fmt.Println("for less accumulated perturbation noise.")
	} else {
		fmt.Println("\n(no improvement on this draw — the gap grows with the mismatch")
		fmt.Println("between assumed and true selectivity)")
	}
}
