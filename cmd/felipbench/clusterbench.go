package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"felip/internal/cluster"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/serve"
)

// clusterCase is one point of the shard-scaling curve: the same report
// multiset ingested by k in-process shards, exported as partial states,
// merged and estimated by a coordinator.
type clusterCase struct {
	Shards int `json:"shards"`
	N      int `json:"n"`
	// ShardIngestMS is each shard's isolated ingest time for its slice;
	// IngestMS is the slowest of them — the cluster's ingest wall-clock, since
	// shards share nothing until finalize. ThroughputRPS = N / IngestMS.
	ShardIngestMS []float64 `json:"shard_ingest_ms"`
	IngestMS      float64   `json:"ingest_ms"`
	ThroughputRPS float64   `json:"throughput_rps"`
	// SpeedupVsSingle is this case's ingest throughput over the 1-shard
	// case's.
	SpeedupVsSingle float64 `json:"speedup_vs_single"`
	// ExportMS is the slowest shard's partial-state export (shards export in
	// parallel in a real cluster); MergeMS the coordinator's import of every
	// state; EstimateMS its single estimation + engine build + warmup.
	// EngineReadyMS — the finalize-to-first-query latency — is their sum.
	ExportMS      float64 `json:"export_ms"`
	MergeMS       float64 `json:"merge_ms"`
	EstimateMS    float64 `json:"estimate_ms"`
	EngineReadyMS float64 `json:"engine_ready_ms"`
	// BitIdentical reports that every grid of the merged aggregator equals the
	// 1-shard aggregator's float-for-float.
	BitIdentical bool `json:"bit_identical"`
}

type clusterReport struct {
	Timestamp   string        `json:"timestamp"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	N           int           `json:"n"`
	Epsilon     float64       `json:"epsilon"`
	Reps        int           `json:"reps"`
	Methodology string        `json:"methodology"`
	Cases       []clusterCase `json:"cases"`
}

// clusterMethodology documents how the curve is measured so the numbers are
// honest on any host — in particular a single-core CI runner, where k shards
// cannot physically run at once and wall-clocking them together would
// benchmark the scheduler, not the architecture.
const clusterMethodology = "Each shard's ingest of its hash-assigned slice (dedup index + plan validation + " +
	"streaming OLH fold) is timed in isolation, sequentially; cluster ingest time is the slowest " +
	"shard's time, because shards are independent processes that share no state until the " +
	"coordinator pulls their sealed partial aggregates at finalize. Throughput = N / max_i(shard " +
	"ingest time). Export is likewise the slowest shard's partial-state export; merge and the " +
	"single estimation run on the coordinator. Best of -reps repetitions."

// benchReport is one pre-built report with its routing keys, so the timed
// loop does nothing but ingest.
type benchReport struct {
	id  string
	rep core.Report
}

// runClusterBench measures ingest throughput and time-to-engine-ready for
// 1/2/4 in-process shards and writes the JSON report.
func runClusterBench(outPath string, reps int, smoke bool) error {
	n := 150_000
	if smoke {
		n = 20_000
	}
	if reps < 1 {
		reps = 1
	}
	schema := dataset.MixedSchema(2, 32, 2, 4)
	ds := dataset.NewNormal().Generate(schema, n, 907)
	opts := core.Options{
		Strategy: core.OHG,
		Epsilon:  1.2,
		Seed:     911,
		// The production ingest configuration: OLH folds in batches during
		// collection, which is exactly the per-report work a shard parallelizes.
		StreamingAggregation: true,
	}

	planner, err := core.NewCollector(schema, n, opts)
	if err != nil {
		return err
	}
	specs := planner.Specs()
	device, err := core.NewClient(specs, opts.Epsilon, 913)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "felipbench: -cluster generating %d reports\n", n)
	reports := make([]benchReport, n)
	for row := 0; row < n; row++ {
		id := fmt.Sprintf("u-%d", row)
		rep, err := device.Perturb(httpapi.DeriveGroup(id, len(specs)),
			func(attr int) int { return ds.Value(row, attr) })
		if err != nil {
			return err
		}
		reports[row] = benchReport{id: id, rep: rep}
	}

	report := clusterReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		N:           n,
		Epsilon:     opts.Epsilon,
		Reps:        reps,
		Methodology: clusterMethodology,
	}

	var singleThroughput float64
	var singleGrids [][]float64
	var diverged []int // shard counts whose merged grids differ from one shard's
	for _, k := range []int{1, 2, 4} {
		// Partition once per case: ShardFor is what production routing uses.
		slices := make([][]benchReport, k)
		for _, br := range reports {
			s := cluster.ShardFor(br.id, k)
			slices[s] = append(slices[s], br)
		}

		var best caseRun
		for rep := 0; rep < reps; rep++ {
			c, err := runClusterCase(schema, n, opts, k, slices, singleGrids)
			if err != nil {
				return err
			}
			if !c.BitIdentical {
				diverged = append(diverged, k)
			}
			if rep == 0 || c.IngestMS < best.IngestMS {
				best = c
			}
			if k == 1 && len(singleGrids) == 0 {
				singleGrids = c.grids
			}
		}
		if k == 1 {
			singleThroughput = best.ThroughputRPS
		}
		best.SpeedupVsSingle = best.ThroughputRPS / singleThroughput
		report.Cases = append(report.Cases, best.clusterCase)
		fmt.Fprintf(os.Stderr,
			"felipbench: -cluster shards=%d ingest %.1fms (%.0f reports/s, %.2fx single), engine-ready %.1fms, bit_identical=%v\n",
			k, best.IngestMS, best.ThroughputRPS, best.SpeedupVsSingle, best.EngineReadyMS, best.BitIdentical)
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "felipbench: wrote %s\n", outPath)
	if len(diverged) > 0 {
		return fmt.Errorf("-cluster: merged grids differ from the single-shard round at shards=%v", diverged)
	}
	return nil
}

// caseRun carries the per-rep measurement plus the merged grids for the
// bit-identity check.
type caseRun struct {
	clusterCase
	grids [][]float64
}

func runClusterCase(schema *domain.Schema, n int, opts core.Options, k int, slices [][]benchReport, singleGrids [][]float64) (caseRun, error) {
	c := caseRun{clusterCase: clusterCase{Shards: k, N: n}}

	// Ingest: each shard's slice in isolation — dedup index plus collector
	// (plan validation + streaming OLH fold), the shard server's per-report
	// work minus the HTTP framing both topologies share.
	shards := make([]*core.Collector, k)
	c.ShardIngestMS = make([]float64, k)
	for s := 0; s < k; s++ {
		col, err := core.NewCollector(schema, n, opts)
		if err != nil {
			return c, err
		}
		shards[s] = col
		dedup := make(map[string]struct{}, len(slices[s]))
		start := time.Now()
		for _, br := range slices[s] {
			if _, dup := dedup[br.id]; dup {
				continue
			}
			if err := col.Add(br.rep); err != nil {
				return c, err
			}
			dedup[br.id] = struct{}{}
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		c.ShardIngestMS[s] = ms
		if ms > c.IngestMS {
			c.IngestMS = ms
		}
	}
	c.ThroughputRPS = float64(n) / (c.IngestMS / 1000)

	// Finalize: shards export (parallel in a real cluster → slowest counts),
	// the coordinator merges and estimates once.
	states := make([][]fo.PartialState, k)
	for s := 0; s < k; s++ {
		start := time.Now()
		st, err := shards[s].ExportPartials()
		if err != nil {
			return c, err
		}
		states[s] = st
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms > c.ExportMS {
			c.ExportMS = ms
		}
	}
	coord, err := core.NewCollector(schema, n, opts)
	if err != nil {
		return c, err
	}
	start := time.Now()
	for s := 0; s < k; s++ {
		if err := coord.ImportPartials(states[s]); err != nil {
			return c, err
		}
	}
	c.MergeMS = float64(time.Since(start).Microseconds()) / 1000

	start = time.Now()
	agg, err := coord.Finalize()
	if err != nil {
		return c, err
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		return c, err
	}
	if err := eng.Warmup(); err != nil {
		return c, err
	}
	c.EstimateMS = float64(time.Since(start).Microseconds()) / 1000
	c.EngineReadyMS = c.ExportMS + c.MergeMS + c.EstimateMS

	c.grids = aggGrids(agg)
	if singleGrids == nil {
		c.BitIdentical = true // the reference itself
	} else {
		c.BitIdentical = gridsEqual(c.grids, singleGrids)
	}
	return c, nil
}

// aggGrids flattens every grid's frequency vector, in spec order.
func aggGrids(agg *core.Aggregator) [][]float64 {
	var out [][]float64
	for _, sp := range agg.Specs() {
		if sp.Is1D() {
			g, _ := agg.Grid1D(sp.AttrX)
			out = append(out, g.Freq)
		} else {
			g, _ := agg.Grid2D(sp.AttrX, sp.AttrY)
			out = append(out, g.Freq)
		}
	}
	return out
}

func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for v := range a[g] {
			if a[g][v] != b[g][v] {
				return false
			}
		}
	}
	return true
}
