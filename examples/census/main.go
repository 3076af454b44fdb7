// Census analytics: the paper's motivating scenario (§1) on the simulated
// IPUMS census stand-in.
//
// A statistics office collects demographic records under ε-LDP and answers
// analyst queries mixing range constraints on numerical attributes (age,
// income, hours worked) with point/set constraints on categorical ones
// (education, sex, marital status) — e.g. the paper's example
//
//	SELECT COUNT(*) FROM T
//	WHERE Age BETWEEN 30 AND 60
//	  AND Education IN ('Doctorate','Masters')
//	  AND Income <= 80k
//
// The example compares the OUG and OHG strategies against the exact
// answers across a small analyst workload.
//
// Run with: go run ./examples/census
package main

import (
	"fmt"
	"log"
	"math"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/query"
	"felip/internal/serve"
)

func main() {
	// Census-like schema. Domains are the encoded bins: age in years,
	// income in 2k$ buckets, hours per week; education/marital/sex encoded
	// categoricals.
	schema := domain.MustSchema(
		domain.Attribute{Name: "age", Kind: domain.Numerical, Size: 96},
		domain.Attribute{Name: "income", Kind: domain.Numerical, Size: 128},
		domain.Attribute{Name: "hours", Kind: domain.Numerical, Size: 80},
		domain.Attribute{Name: "education", Kind: domain.Categorical, Size: 8},
		domain.Attribute{Name: "sex", Kind: domain.Categorical, Size: 2},
		domain.Attribute{Name: "marital", Kind: domain.Categorical, Size: 5},
	)
	const n = 300_000
	users := dataset.NewIPUMSSim().Generate(schema, n, 2024)

	age, _ := schema.Index("age")
	income, _ := schema.Index("income")
	hours, _ := schema.Index("hours")
	edu, _ := schema.Index("education")
	sex, _ := schema.Index("sex")

	workload := []struct {
		name string
		q    query.Query
	}{
		{"paper §1 example (age 30-60, postgrad, income ≤ 80k)", query.Query{Preds: []query.Predicate{
			query.NewRange(age, 30, 60),
			query.NewIn(edu, 0, 1), // the two most common post-secondary codes
			query.NewRange(income, 0, 40),
		}}},
		{"prime-age women", query.Query{Preds: []query.Predicate{
			query.NewRange(age, 25, 54),
			query.NewPoint(sex, 1),
		}}},
		{"overtime earners", query.Query{Preds: []query.Predicate{
			query.NewRange(hours, 45, 79),
			query.NewRange(income, 48, 127),
		}}},
		{"young graduates working full time", query.Query{Preds: []query.Predicate{
			query.NewRange(age, 22, 35),
			query.NewIn(edu, 0, 1, 2),
			query.NewRange(hours, 35, 45),
		}}},
	}

	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = users.Col(i)
	}

	fmt.Printf("census example: n=%d users, ε=1.0\n", n)
	fmt.Printf("%-52s %10s %10s %10s\n", "query", "exact", "OUG", "OHG")

	engines := map[string]*serve.Engine{}
	for name, strat := range map[string]core.Strategy{"OUG": core.OUG, "OHG": core.OHG} {
		agg, err := core.Collect(users, core.Options{Strategy: strat, Epsilon: 1.0, Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		if engines[name], err = serve.NewEngine(agg); err != nil {
			log.Fatal(err)
		}
	}

	var maeOUG, maeOHG float64
	for _, item := range workload {
		truth := query.Evaluate(item.q, cols)
		oug, err := engines["OUG"].Answer(item.q)
		if err != nil {
			log.Fatal(err)
		}
		ohg, err := engines["OHG"].Answer(item.q)
		if err != nil {
			log.Fatal(err)
		}
		maeOUG += math.Abs(oug - truth)
		maeOHG += math.Abs(ohg - truth)
		fmt.Printf("%-52s %10.4f %10.4f %10.4f\n", item.name, truth, oug, ohg)
	}
	fmt.Printf("\nworkload MAE: OUG=%.4f  OHG=%.4f\n",
		maeOUG/float64(len(workload)), maeOHG/float64(len(workload)))
	fmt.Println("\nOn skewed census-like data the hybrid strategy's auxiliary 1-D")
	fmt.Println("grids usually refine the range answers (paper §6.2).")
}
