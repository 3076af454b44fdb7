package estimate_test

import (
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/estimate"
	"felip/internal/query"
)

// benchmarkPlanRound is a finalized round on the pipeline benchmark's plan:
// six 256-value numerical and two 16-value categorical attributes, planned
// for 5M users, 100k reports collected.
func benchmarkPlanRound(tb testing.TB) *core.Aggregator {
	tb.Helper()
	schema := dataset.MixedSchema(6, 256, 2, 16)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 1201}
	col, err := core.NewCollector(schema, 5_000_000, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ds := dataset.NewNormal().Generate(schema, 100_000, 1202)
	dev, err := core.NewClient(col.Specs(), opts.Epsilon, 1203)
	if err != nil {
		tb.Fatal(err)
	}
	for row := 0; row < ds.N(); row++ {
		rep, err := dev.Perturb(col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			tb.Fatal(err)
		}
		if err := col.Add(rep); err != nil {
			tb.Fatal(err)
		}
	}
	agg, err := col.Finalize()
	if err != nil {
		tb.Fatal(err)
	}
	return agg
}

// The pipeline benchmark's 100 probe queries (its generator seed and
// selectivity, λ = 1 + i%4), with the pair answers the serving engine
// computes from each pair's surface on a round of the benchmark's plan: on
// every λ ≥ 2 probe the per-region change must stop Algorithm 4 after the
// same sweep as the entry-wise change, with a bit-identical z.
func TestFitLambdaMatchesEntrywiseOnBenchmarkProbes(t *testing.T) {
	agg := benchmarkPlanRound(t)
	schema := agg.Schema()
	surfaces := make(map[[2]int]*estimate.Product)
	surface := func(i, j int) *estimate.Product {
		key := [2]int{i, j}
		if p, ok := surfaces[key]; ok {
			return p
		}
		g2, ok := agg.Grid2D(i, j)
		if !ok {
			t.Fatalf("no 2-D grid for pair (%d,%d)", i, j)
		}
		p := estimate.ExpandGrid(g2)
		if agg.Strategy() == core.OHG && agg.NeedsMatrix(i, j) {
			gx, _ := agg.Grid1D(i)
			gy, _ := agg.Grid1D(j)
			p = estimate.FitProduct(g2, gx, gy, agg.IPFThreshold(), estimate.MatrixMaxIter)
		}
		surfaces[key] = p
		return p
	}
	gen, err := query.NewGenerator(schema, 0.5, 0x9e3779b97f4a7c15)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < 100; i++ {
		q, err := gen.Generate(1 + i%4)
		if err != nil {
			t.Fatal(err)
		}
		if q.Lambda() < 2 {
			continue
		}
		attrs := q.Attrs()
		spans := make(map[int][]estimate.Span)
		for _, p := range q.Preds {
			spans[p.Attr] = p.Spans(schema.Attr(p.Attr).Size)
		}
		var pairs []estimate.PairAnswer
		for ii := range attrs {
			for jj := ii + 1; jj < len(attrs); jj++ {
				ai, aj := attrs[ii], attrs[jj]
				pa := surface(ai, aj).Quadrants(spans[ai], spans[aj])
				pa.I, pa.J = ii, jj
				pairs = append(pairs, pa)
			}
		}
		if err := estimate.CheckLambdaAgainstEntrywise(q.Lambda(), pairs, agg.IPFThreshold(), estimate.LambdaMaxIter); err != nil {
			t.Fatalf("probe %d %v: %v", i, q, err)
		}
		checked++
	}
	if checked != 75 {
		t.Fatalf("checked %d probes, want the 75 with λ ≥ 2", checked)
	}
}
