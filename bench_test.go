// Package felip's root benchmark suite: one benchmark per paper figure and
// ablation (regenerating a miniaturized version of the figure's series and
// reporting its MAE values as custom metrics), plus micro-benchmarks of the
// core primitives.
//
// The figure benchmarks run at a reduced population so `go test -bench=.`
// finishes on a laptop; `felipbench -paper` regenerates the full-scale
// series. Shapes (strategy ordering, trends) are preserved at this scale.
package felip

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/estimate"
	"felip/internal/experiment"
	"felip/internal/fo"
	"felip/internal/postproc"
	"felip/internal/query"
	"felip/internal/serve"
)

// benchParams is the miniaturized scale shared by all figure benchmarks.
func benchParams() experiment.Params {
	return experiment.Params{
		N:          20_000,
		NumQueries: 5,
		Seed:       12345,
		Lambdas:    []int{2},
		Datasets:   []string{"normal"},
	}
}

// runFigureBench executes the figure's cells once per b.N iteration and
// reports the final per-strategy mean MAE as custom benchmark metrics.
func runFigureBench(b *testing.B, id string, trim int) {
	b.Helper()
	p := benchParams()
	spec, err := experiment.FigureByID(p, id)
	if err != nil {
		b.Fatal(err)
	}
	// Trim each panel to its first `trim` cells to bound runtime.
	if trim > 0 {
		for gi := range spec.Groups {
			if len(spec.Groups[gi].Cells) > trim {
				spec.Groups[gi].Cells = spec.Groups[gi].Cells[:trim]
			}
		}
	}
	var groups []experiment.GroupResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err = experiment.RunFigure(spec, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for s, mae := range experiment.Summary(groups) {
		b.ReportMetric(mae, fmt.Sprintf("MAE-%s", s))
	}
}

// BenchmarkFig1 regenerates Figure 1 (MAE vs privacy budget ε).
func BenchmarkFig1(b *testing.B) { runFigureBench(b, "fig1", 3) }

// BenchmarkFig2 regenerates Figure 2 (MAE vs query selectivity s).
func BenchmarkFig2(b *testing.B) { runFigureBench(b, "fig2", 3) }

// BenchmarkFig3 regenerates Figure 3 (MAE vs attribute domain size d).
func BenchmarkFig3(b *testing.B) { runFigureBench(b, "fig3", 3) }

// BenchmarkFig4 regenerates Figure 4 (MAE vs query dimension λ).
func BenchmarkFig4(b *testing.B) { runFigureBench(b, "fig4", 3) }

// BenchmarkFig5 regenerates Figure 5 (MAE vs number of attributes k).
func BenchmarkFig5(b *testing.B) { runFigureBench(b, "fig5", 3) }

// BenchmarkFig6 regenerates Figure 6 (MAE vs number of users n).
func BenchmarkFig6(b *testing.B) { runFigureBench(b, "fig6", 3) }

// BenchmarkFig7 regenerates Figure 7 (range-only comparison vs TDG/HDG).
func BenchmarkFig7(b *testing.B) { runFigureBench(b, "fig7", 3) }

// BenchmarkAblationPartitioning regenerates the dividing-users vs
// dividing-budget ablation (Theorem 5.1).
func BenchmarkAblationPartitioning(b *testing.B) { runFigureBench(b, "abl-part", 3) }

// BenchmarkAblationAFO regenerates the adaptive-FO vs forced-protocol
// ablation (§6.3).
func BenchmarkAblationAFO(b *testing.B) { runFigureBench(b, "abl-afo", 3) }

// BenchmarkAblationSelectivity regenerates the selectivity-prior ablation.
func BenchmarkAblationSelectivity(b *testing.B) { runFigureBench(b, "abl-sel", 3) }

// --- Micro-benchmarks of the primitives -----------------------------------

func benchDataset(n int) *dataset.Dataset {
	return dataset.NewNormal().Generate(dataset.MixedSchema(2, 64, 2, 8), n, 1)
}

// BenchmarkGRREstimate measures a full GRR round (perturb + aggregate) for
// 10k users over a 64-value domain.
func BenchmarkGRREstimate(b *testing.B) {
	vals := make([]int, 10_000)
	for i := range vals {
		vals[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fo.Estimate(fo.GRR, 1.0, 64, vals, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLHEstimate measures a full OLH round (perturb + support
// counting) for 10k users over a 64-value domain — the dominant cost of a
// collection round.
func BenchmarkOLHEstimate(b *testing.B) {
	vals := make([]int, 10_000)
	for i := range vals {
		vals[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fo.Estimate(fo.OLH, 1.0, 64, vals, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOUECollect measures a full OUE round for 5k users over a
// 64-value domain.
func BenchmarkOUECollect(b *testing.B) {
	vals := make([]int, 5_000)
	for i := range vals {
		vals[i] = i % 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fo.Estimate(fo.OUE, 1.0, 64, vals, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectOUG measures a full OUG collection round (plan, partition,
// perturb, aggregate, post-process) at n=20k.
func BenchmarkCollectOUG(b *testing.B) {
	ds := benchDataset(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Collect(ds, core.Options{Strategy: core.OUG, Epsilon: 1, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectOHG measures a full OHG collection round at n=20k.
func BenchmarkCollectOHG(b *testing.B) {
	ds := benchDataset(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Collect(ds, core.Options{Strategy: core.OHG, Epsilon: 1, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalCollect measures the deployment path at n=10k: device
// perturbation (core.Client), report ingestion (core.Collector) and
// finalization.
func BenchmarkIncrementalCollect(b *testing.B) {
	ds := benchDataset(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := core.NewCollector(ds.Schema(), ds.N(), core.Options{Strategy: core.OHG, Epsilon: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		device, err := core.NewClient(col.Specs(), col.Epsilon(), uint64(i+100))
		if err != nil {
			b.Fatal(err)
		}
		for row := 0; row < ds.N(); row++ {
			rep, err := device.Perturb(col.AssignGroup(), func(attr int) int { return ds.Value(row, attr) })
			if err != nil {
				b.Fatal(err)
			}
			if err := col.Add(rep); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := col.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswer4D measures answering a 4-dimensional query (response
// matrices + IPF) through the serving engine of a prepared OHG round.
func BenchmarkAnswer4D(b *testing.B) {
	ds := benchDataset(20_000)
	agg, err := core.Collect(ds, core.Options{Strategy: core.OHG, Epsilon: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		b.Fatal(err)
	}
	q := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 8, 40),
		query.NewRange(1, 16, 50),
		query.NewIn(2, 0, 1, 2),
		query.NewIn(3, 1, 3),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResponseMatrixFit measures Algorithm 3 on a num×num pair shaped
// like a production one: a 256×256 value matrix, a coarse 8×8 2-D grid and
// 49-cell 1-D grids on both axes, with noisy targets whose 2-D and 1-D
// marginals disagree — as independently perturbed grids do — so the fit runs
// all 50 sweeps at the 1/n threshold (n = 100k) instead of converging early.
func BenchmarkResponseMatrixFit(b *testing.B) {
	const d, l2, l1, n = 256, 8, 49, 100_000
	rng := rand.New(rand.NewSource(7))
	noisy := func(mean float64) float64 { return math.Max(mean*(1+0.3*rng.NormFloat64()), 0) }
	bump := func(c, cells int, center float64) float64 {
		z := (float64(c)+0.5)/float64(cells) - center
		return math.Exp(-z * z / 0.08)
	}
	var cons []estimate.Constraint
	for cx := 0; cx < l2; cx++ {
		for cy := 0; cy < l2; cy++ {
			cons = append(cons, estimate.Constraint{
				R:      estimate.Rect{XLo: cx * d / l2, XHi: (cx + 1) * d / l2, YLo: cy * d / l2, YHi: (cy + 1) * d / l2},
				Target: noisy(bump(cx, l2, 0.4) * bump(cy, l2, 0.6) / 16),
			})
		}
	}
	for c := 0; c < l1; c++ {
		cons = append(cons, estimate.Constraint{
			R:      estimate.Rect{XLo: c * d / l1, XHi: (c + 1) * d / l1, YLo: 0, YHi: d},
			Target: noisy(bump(c, l1, 0.45) / 24),
		})
	}
	for c := 0; c < l1; c++ {
		cons = append(cons, estimate.Constraint{
			R:      estimate.Rect{XLo: 0, XHi: d, YLo: c * d / l1, YHi: (c + 1) * d / l1},
			Target: noisy(bump(c, l1, 0.55) / 24),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := estimate.NewMatrix(d, d)
		if err != nil {
			b.Fatal(err)
		}
		m.Fit(cons, 1.0/n, 50)
	}
}

// BenchmarkLambdaIPF measures Algorithm 4 for a 10-dimensional query.
func BenchmarkLambdaIPF(b *testing.B) {
	var pairs []estimate.PairAnswer
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			pairs = append(pairs, estimate.PairAnswer{I: i, J: j, PP: 0.2, PN: 0.3, NP: 0.3, NN: 0.2})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.EstimateLambda(10, pairs, 1e-6, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormSub measures Algorithm 1 on a 1024-cell vector with mixed
// signs.
func BenchmarkNormSub(b *testing.B) {
	base := make([]float64, 1024)
	for i := range base {
		base[i] = float64(i%7-3) / 1000
	}
	buf := make([]float64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		postproc.NormSub(buf, 1)
	}
}
