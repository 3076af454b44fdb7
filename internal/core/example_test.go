package core_test

import (
	"fmt"
	"log"
	"math"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/query"
	"felip/internal/serve"
)

// ExampleCollect shows the simulated single-call round: a dataset stands in
// for the population, Collect runs planning, ε-LDP perturbation and
// aggregation, and a serving engine answers a mixed point/range query.
func ExampleCollect() {
	schema := dataset.MixedSchema(2, 64, 2, 8)
	users := dataset.NewNormal().Generate(schema, 50_000, 1)

	agg, err := core.Collect(users, core.Options{
		Strategy: core.OHG,
		Epsilon:  3.0,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}

	q := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 16, 47), // num0 BETWEEN 16 AND 47
		query.NewIn(2, 0, 1),      // cat0 IN (0, 1)
	}}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		log.Fatal(err)
	}
	estimate, err := eng.Answer(q)
	if err != nil {
		log.Fatal(err)
	}

	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = users.Col(i)
	}
	truth := query.Evaluate(q, cols)
	fmt.Println("within 0.05 of the exact answer:", math.Abs(estimate-truth) < 0.05)
	// Output: within 0.05 of the exact answer: true
}

// ExampleCollector shows the deployment path: the aggregator publishes a
// plan, each device perturbs locally with core.Client and submits a single
// report, and the round is finalized server-side.
func ExampleCollector() {
	schema := dataset.MixedSchema(2, 64, 2, 8)
	users := dataset.NewNormal().Generate(schema, 20_000, 2)

	col, err := core.NewCollector(schema, users.N(), core.Options{
		Strategy: core.OHG,
		Epsilon:  2.0,
		Seed:     9,
	})
	if err != nil {
		log.Fatal(err)
	}
	device, err := core.NewClient(col.Specs(), col.Epsilon(), 11)
	if err != nil {
		log.Fatal(err)
	}
	for row := 0; row < users.N(); row++ {
		rep, err := device.Perturb(col.AssignGroup(), func(attr int) int {
			return users.Value(row, attr)
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			log.Fatal(err)
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reports aggregated:", agg.N())
	// Output: reports aggregated: 20000
}
