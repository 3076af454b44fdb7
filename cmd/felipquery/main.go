// Command felipquery is the end-to-end demo: it generates (or loads) a
// dataset, runs a full FELIP collection round under ε-LDP, answers a
// multidimensional counting query, and compares the private estimate with
// the exact answer.
//
// Predicates are passed as a compact WHERE expression:
//
//	attr=lo..hi   range predicate (numerical attributes)
//	attr=a,b,c    set predicate (categorical attributes)
//
// joined with ';'. Example:
//
//	felipquery -dataset ipums-sim -n 200000 -eps 1.0 \
//	    -where "num0=16..48;cat0=0,1"
//
//	felipquery -csv data.csv -knum 3 -dnum 64 -kcat 3 -dcat 8 \
//	    -strategy OUG -where "num1=0..31"
//
// With -batch, WHERE expressions are read from stdin (one per line; blank
// lines and '#' comments skipped) and answered concurrently by the serving
// engine after one collection round:
//
//	felipgen -queries 100 -lambdas 1,2,3 | felipquery -batch -n 50000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/query"
	"felip/internal/serve"
)

func main() {
	var (
		name     = flag.String("dataset", "ipums-sim", "generator: uniform|normal|ipums-sim|loan-sim")
		csvPath  = flag.String("csv", "", "load dataset from CSV instead of generating")
		n        = flag.Int("n", 100000, "number of users to generate")
		kNum     = flag.Int("knum", 3, "number of numerical attributes")
		dNum     = flag.Int("dnum", 64, "numerical domain size")
		kCat     = flag.Int("kcat", 3, "number of categorical attributes")
		dCat     = flag.Int("dcat", 8, "categorical domain size")
		eps      = flag.Float64("eps", 1.0, "privacy budget ε")
		strategy = flag.String("strategy", "OHG", "FELIP strategy: OUG|OHG")
		sel      = flag.Float64("selectivity", 0.5, "grid-sizing selectivity prior")
		seed     = flag.Uint64("seed", 42, "seed for data generation and perturbation")
		where    = flag.String("where", "", "query predicates, e.g. \"num0=16..48;cat0=0,1\"")
		batch    = flag.Bool("batch", false, "read WHERE expressions from stdin (one per line) and answer them concurrently")
		saveTo   = flag.String("save", "", "save the aggregator state to this file after collection")
		loadFrom = flag.String("load", "", "load a previously saved aggregator instead of collecting")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "felipquery:", err)
		os.Exit(1)
	}

	schema := dataset.MixedSchema(*kNum, *dNum, *kCat, *dCat)
	var ds *dataset.Dataset
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fail(err)
		}
		ds, err = dataset.ReadCSV(f, schema)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		gen, err := dataset.ByName(*name)
		if err != nil {
			fail(err)
		}
		ds = gen.Generate(schema, *n, *seed)
	}

	var q query.Query
	var err error
	if !*batch {
		if *where == "" {
			fail(fmt.Errorf("-where is required (or use -batch), e.g. -where \"num0=16..48;cat0=0,1\""))
		}
		q, err = query.Parse(*where, schema)
		if err != nil {
			fail(err)
		}
	}

	var strat core.Strategy
	switch strings.ToUpper(*strategy) {
	case "OUG":
		strat = core.OUG
	case "OHG":
		strat = core.OHG
	default:
		fail(fmt.Errorf("unknown strategy %q (want OUG or OHG)", *strategy))
	}

	fmt.Printf("schema   : %v\n", schema)
	fmt.Printf("users    : %d\n", ds.N())
	if *batch {
		fmt.Println("query    : batch mode, reading WHERE expressions from stdin")
	} else {
		fmt.Printf("query    : SELECT COUNT(*) WHERE %v\n", q)
	}

	var agg *core.Aggregator
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			fail(err)
		}
		agg, err = core.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("state    : restored from %s (strategy and ε from snapshot)\n", *loadFrom)
	} else {
		fmt.Printf("strategy : %v, ε = %v, selectivity prior = %v\n", strat, *eps, *sel)
		agg, err = core.Collect(ds, core.Options{
			Strategy:    strat,
			Epsilon:     *eps,
			Selectivity: *sel,
			Seed:        *seed + 1,
		})
		if err != nil {
			fail(err)
		}
	}
	fmt.Println("grid plan:")
	for _, sp := range agg.Specs() {
		fmt.Printf("  %v\n", sp)
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fail(err)
		}
		if err := agg.Save(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("state    : saved to %s\n", *saveTo)
	}

	cols := make([][]uint16, schema.Len())
	for i := range cols {
		cols[i] = ds.Col(i)
	}
	eng, err := serve.NewEngine(agg)
	if err != nil {
		fail(err)
	}

	if *batch {
		runBatch(fail, eng, schema, cols, float64(ds.N()))
		return
	}

	got, err := eng.Answer(q)
	if err != nil {
		fail(err)
	}
	truth := query.Evaluate(q, cols)

	fmt.Printf("\nprivate estimate : %.6f  (≈ %d users)\n", got, int(got*float64(ds.N())+0.5))
	if ee, err := eng.ExpectedError(q); err == nil {
		fmt.Printf("expected error   : ±%.6f (analytic, a-priori)\n", ee)
	}
	fmt.Printf("exact answer     : %.6f  (= %d users)\n", truth, int(truth*float64(ds.N())+0.5))
	fmt.Printf("absolute error   : %.6f\n", math.Abs(got-truth))
}

// runBatch answers every WHERE expression on stdin through the serving
// engine and prints one line per query: estimate, exact answer and the
// absolute error, plus a mean-absolute-error summary.
func runBatch(fail func(error), eng *serve.Engine, schema *domain.Schema, cols [][]uint16, n float64) {
	if err := eng.Warmup(); err != nil {
		fail(err)
	}

	var qs []query.Query
	var exprs []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := query.Parse(line, schema)
		if err != nil {
			fail(err)
		}
		qs = append(qs, q)
		exprs = append(exprs, line)
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if len(qs) == 0 {
		fail(fmt.Errorf("-batch: no queries on stdin"))
	}

	results := eng.AnswerBatch(qs)
	var sumErr float64
	var answered int
	fmt.Printf("\n%-40s %12s %12s %10s\n", "WHERE", "estimate", "exact", "|err|")
	for i, r := range results {
		if r.Err != nil {
			fmt.Printf("%-40s error: %v\n", exprs[i], r.Err)
			continue
		}
		truth := query.Evaluate(qs[i], cols)
		abs := math.Abs(r.Estimate - truth)
		sumErr += abs
		answered++
		fmt.Printf("%-40s %12.6f %12.6f %10.6f\n", exprs[i], r.Estimate, truth, abs)
	}
	if answered > 0 {
		fmt.Printf("\nqueries answered : %d (of %d)\n", answered, len(qs))
		fmt.Printf("mean abs error   : %.6f  (≈ %.1f users of %d)\n",
			sumErr/float64(answered), sumErr/float64(answered)*n, int(n))
	}
}
