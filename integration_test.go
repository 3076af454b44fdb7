package felip

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"felip/internal/adaptive"
	"felip/internal/archive"
	"felip/internal/baseline/hdg"
	"felip/internal/baseline/hio"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/query"
	"felip/internal/serve"
)

// TestPaperRunningExample reproduces the paper's §1 motivating query
// end-to-end on a census-like population:
//
//	SELECT COUNT(*) FROM T WHERE Age BETWEEN 30 AND 60
//	  AND Education IN ('Doctorate','Masters') AND Salary <= 80k
func TestPaperRunningExample(t *testing.T) {
	schema := domain.MustSchema(
		domain.Attribute{Name: "age", Kind: domain.Numerical, Size: 96},
		domain.Attribute{Name: "education", Kind: domain.Categorical, Size: 8},
		domain.Attribute{Name: "salary", Kind: domain.Numerical, Size: 128},
	)
	users := dataset.NewIPUMSSim().Generate(schema, 100_000, 2023)
	q, err := query.Parse("age=30..60; education=1,2; salary<=80", schema)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.Evaluate(q, [][]uint16{users.Col(0), users.Col(1), users.Col(2)})

	for _, strat := range []core.Strategy{core.OUG, core.OHG} {
		agg, err := core.Collect(users, core.Options{Strategy: strat, Epsilon: 1, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		got, err := engineFor(t, agg).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.05 {
			t.Errorf("%v: got %v, truth %v", strat, got, truth)
		}
	}
}

// TestAllEstimatorsOneWorkload drives every estimator in the repository
// (FELIP OUG/OHG, the adaptive extension, HIO, TDG, HDG) over one workload
// and checks that each is in a sane error band — a cross-module smoke test
// of the whole system.
func TestAllEstimatorsOneWorkload(t *testing.T) {
	schema := dataset.NumericSchema(4, 64)
	users := dataset.NewNormal().Generate(schema, 50_000, 77)
	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = users.Col(i)
	}
	gen, err := query.NewGenerator(schema, 0.5, 79)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.GenerateMany(6, 2)
	if err != nil {
		t.Fatal(err)
	}

	type answerer interface {
		Answer(query.Query) (float64, error)
	}
	systems := map[string]answerer{}

	for name, strat := range map[string]core.Strategy{"OUG": core.OUG, "OHG": core.OHG} {
		agg, err := core.Collect(users, core.Options{Strategy: strat, Epsilon: 2, Seed: 81})
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = engineFor(t, agg)
	}
	ad, err := adaptive.Collect(users, adaptive.Options{Core: core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 83}})
	if err != nil {
		t.Fatal(err)
	}
	systems["OHG-eqmass"] = engineFor(t, ad.Inner())
	hioAgg, err := hio.Collect(users, hio.Options{Epsilon: 2, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	systems["HIO"] = hioAgg
	for name, variant := range map[string]hdg.Variant{"TDG": hdg.TDG, "HDG": hdg.HDG} {
		agg, err := hdg.Collect(users, hdg.Options{Variant: variant, Epsilon: 2, Seed: 87})
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = agg
	}

	for name, sys := range systems {
		var mae float64
		for _, q := range qs {
			got, err := sys.Answer(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mae += math.Abs(got - query.Evaluate(q, cols))
		}
		mae /= float64(len(qs))
		limit := 0.1
		if name == "HIO" {
			limit = 0.5 // HIO is the weak baseline by design
		}
		if mae > limit {
			t.Errorf("%s MAE = %v exceeds %v", name, mae, limit)
		}
	}
}

// TestCollectServePersistQuery chains the deployment features: HTTP
// collection round → finalize → snapshot the aggregator through the core API
// → restore → identical answers.
func TestCollectServePersistQuery(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 1, 4)
	users := dataset.NewLoanSim().Generate(schema, 15_000, 91)
	srv, err := httpapi.NewServer(schema, users.N(), core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := httpapi.Dial(ts.URL, ts.Client())
	ctx := context.Background()

	plan, err := cl.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	device, err := core.NewClient(specs, plan.Epsilon, 95)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < users.N(); row++ {
		group, err := cl.Assign(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := device.Perturb(group, func(attr int) int { return users.Value(row, attr) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Report(ctx, rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Query(ctx, "num0=8..23")
	if err != nil {
		t.Fatal(err)
	}

	// Persist an equivalent round through the library API and compare paths.
	agg, err := core.Collect(users, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("num0=8..23", schema)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engineFor(t, restored).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.Evaluate(q, [][]uint16{users.Col(0), users.Col(1), users.Col(2)})
	for name, got := range map[string]float64{"http": resp.Estimate, "restored": direct} {
		if math.Abs(got-truth) > 0.07 {
			t.Errorf("%s answer %v far from truth %v", name, got, truth)
		}
	}
}

// TestStreamOfAdaptiveRounds combines the two extensions: a stream of
// batches, each archived as one round, answered over the retained rounds
// while the marginals drift.
func TestStreamOfAdaptiveRounds(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 1, 4)
	store, err := archive.Open(t.TempDir(), archive.Options{RetainRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := fo.NewRand(97)
	for w := 0; w < 3; w++ {
		batch := dataset.NewNormal().Generate(schema, 15_000, uint64(200+w))
		agg, err := core.Collect(batch, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: seeds.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteRound(archive.RoundSnapshot{Round: w + 1, Reports: agg.N(), Aggregate: agg.Snapshot()}); err != nil {
			t.Fatal(err)
		}
	}
	q := query.Query{Preds: []query.Predicate{query.NewRange(0, 8, 23), query.NewIn(2, 0, 1)}}
	horizon, err := store.AnswerRange(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if horizon < 0 || horizon > 1 || math.IsNaN(horizon) {
		t.Errorf("horizon answer %v", horizon)
	}
}

func engineFor(t *testing.T, agg *core.Aggregator) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(agg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
