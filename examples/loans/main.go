// Loan-risk slicing: the Lending-Club-style scenario on the simulated loan
// dataset, showcasing the adaptive frequency oracle (paper §5.3).
//
// A lender collects loan applications under ε-LDP and estimates how the
// portfolio splits across rate/amount/grade slices. The example prints the
// grid plan FELIP chose — small grids get GRR, large ones OLH — and shows
// how accuracy responds to the privacy budget.
//
// Run with: go run ./examples/loans
package main

import (
	"fmt"
	"log"
	"math"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/query"
	"felip/internal/serve"
)

func main() {
	schema := domain.MustSchema(
		domain.Attribute{Name: "amount", Kind: domain.Numerical, Size: 100}, // $500 buckets
		domain.Attribute{Name: "rate", Kind: domain.Numerical, Size: 64},    // 0.5% buckets
		domain.Attribute{Name: "income", Kind: domain.Numerical, Size: 128},
		domain.Attribute{Name: "grade", Kind: domain.Categorical, Size: 7}, // A..G
		domain.Attribute{Name: "term", Kind: domain.Categorical, Size: 2},  // 36/60 months
	)
	const n = 250_000
	loans := dataset.NewLoanSim().Generate(schema, n, 777)

	amount, _ := schema.Index("amount")
	rate, _ := schema.Index("rate")
	grade, _ := schema.Index("grade")
	term, _ := schema.Index("term")

	workload := []struct {
		name string
		q    query.Query
	}{
		{"high-rate long-term loans", query.Query{Preds: []query.Predicate{
			query.NewRange(rate, 40, 63),
			query.NewPoint(term, 1),
		}}},
		{"prime-grade big tickets", query.Query{Preds: []query.Predicate{
			query.NewIn(grade, 0, 1),
			query.NewRange(amount, 60, 99),
		}}},
		{"risky slice (grade E-G, rate > 20%)", query.Query{Preds: []query.Predicate{
			query.NewIn(grade, 4, 5, 6),
			query.NewRange(rate, 40, 63),
		}}},
	}

	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = loans.Col(i)
	}

	fmt.Printf("loan example: n=%d applications\n\n", n)

	// Show the adaptive frequency oracle at work for ε = 1.
	agg, err := core.Collect(loans, core.Options{Strategy: core.OHG, Epsilon: 1.0, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	grr, olh := 0, 0
	fmt.Println("grid plan at ε=1 (AFO chooses per grid):")
	for _, sp := range agg.Specs() {
		fmt.Printf("  %-18v L=%-5d → %v\n", sp, sp.L(), sp.Proto)
		if sp.Proto == fo.GRR {
			grr++
		} else {
			olh++
		}
	}
	fmt.Printf("AFO picked GRR for %d grids (small cell counts) and OLH for %d (large).\n\n", grr, olh)

	// Accuracy across privacy budgets.
	fmt.Printf("%-40s %10s", "query", "exact")
	budgets := []float64{0.5, 1.0, 2.0}
	for _, eps := range budgets {
		fmt.Printf("   ε=%.1f  ", eps)
	}
	fmt.Println()
	answers := make(map[float64]*serve.Engine, len(budgets))
	for _, eps := range budgets {
		a, err := core.Collect(loans, core.Options{Strategy: core.OHG, Epsilon: eps, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		if answers[eps], err = serve.NewEngine(a); err != nil {
			log.Fatal(err)
		}
	}
	for _, item := range workload {
		truth := query.Evaluate(item.q, cols)
		fmt.Printf("%-40s %10.4f", item.name, truth)
		for _, eps := range budgets {
			got, err := answers[eps].Answer(item.q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("   %7.4f", got)
		}
		fmt.Println()
	}

	var worst float64
	for _, item := range workload {
		truth := query.Evaluate(item.q, cols)
		got, _ := answers[2.0].Answer(item.q)
		if d := math.Abs(got - truth); d > worst {
			worst = d
		}
	}
	fmt.Printf("\nworst absolute error at ε=2: %.4f — utility improves as ε grows (paper Fig 1).\n", worst)
}
