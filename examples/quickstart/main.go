// Quickstart: the minimal FELIP round-trip.
//
// A population of users holds a 4-attribute record each. The aggregator
// plans optimized LDP grids, every user perturbs one report locally with
// ε-LDP, and a serving engine answers a multidimensional counting query from
// the perturbed reports alone.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/query"
	"felip/internal/serve"
)

func main() {
	// 1. A dataset: 2 numerical + 2 categorical attributes, 100k users.
	//    (In a real deployment each user holds their own record; the
	//    Dataset stands in for the population.)
	schema := dataset.MixedSchema(2, 64, 2, 8)
	users := dataset.NewNormal().Generate(schema, 100_000, 1)

	// 2. One collection round under ε-LDP with the OHG strategy.
	agg, err := core.Collect(users, core.Options{
		Strategy: core.OHG,
		Epsilon:  1.0,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Serve the round and ask a mixed point/range counting query.
	eng, err := serve.NewEngine(agg)
	if err != nil {
		log.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 16, 47), // num0 BETWEEN 16 AND 47
		query.NewIn(2, 0, 1),      // cat0 IN (0, 1)
	}}
	estimate, err := eng.Answer(q)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare with the exact (non-private) answer.
	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = users.Col(i)
	}
	truth := query.Evaluate(q, cols)

	fmt.Printf("query            : %v\n", q)
	fmt.Printf("private estimate : %.4f\n", estimate)
	fmt.Printf("exact answer     : %.4f\n", truth)
	fmt.Printf("absolute error   : %.4f\n", math.Abs(estimate-truth))
}
