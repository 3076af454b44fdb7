// Command felipbench reproduces the paper's evaluation: it runs any figure
// (fig1..fig7) or ablation (abl-part, abl-afo, abl-sel) and prints the MAE
// series the paper plots.
//
// By default the population is scaled down (n=100k instead of the paper's
// 10⁶) so the suite finishes quickly on a laptop; pass -paper for the
// full-scale configuration.
//
// Usage:
//
//	felipbench -fig 1                 # reproduce Figure 1 at laptop scale
//	felipbench -fig 7 -paper         # Figure 7 at the paper's n=10⁶
//	felipbench -fig all -n 50000     # everything, custom population
//	felipbench -list                  # list available figures
//	felipbench -restart               # cold-restart recovery benchmark → BENCH_PR5.json
//	felipbench -modes                 # FELIP/SPL/RS+FD mode shootout → BENCH_PR8.json
//	felipbench -longitudinal          # memoized two-stage vs fresh-ε rounds → BENCH_PR9.json
//	felipbench -megadomain            # mega-domain oracle shootout (MSE × wire bytes) → BENCH_PR10.json
//	felipbench -restart -smoke        # the restart benchmark at CI-smoke sizes
//
// Ingest, query and round-close costs are measured end to end by the
// pipeline benchmark in bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"felip/internal/experiment"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure to reproduce: 1..7, abl-part, abl-afo, abl-sel, or 'all'")
		list    = flag.Bool("list", false, "list available figures and exit")
		paper   = flag.Bool("paper", false, "use the paper's full-scale parameters (n=10⁶)")
		n       = flag.Int("n", 0, "override the population size per cell")
		queries = flag.Int("queries", 0, "override |Q| per cell (paper: 10)")
		seed    = flag.Uint64("seed", 0, "base seed (0 = fixed default)")
		quiet   = flag.Bool("quiet", false, "suppress per-cell progress output")
		only    = flag.String("datasets", "", "comma-separated dataset subset (uniform,normal,ipums-sim,loan-sim)")
		lambdas = flag.String("lambdas", "", "comma-separated query dimensions for the mixed figures (default 2,4)")
		csvPath = flag.String("csv", "", "also write machine-readable results to this CSV file")
		reps    = flag.Int("reps", 3, "timed repetitions per -restart case (best is reported)")
		rbench  = flag.Bool("restart", false, "benchmark cold-restart recovery (WAL replay vs archive snapshot) and exit")
		rout    = flag.String("rout", "BENCH_PR5.json", "output path for the -restart JSON report")
		mbench  = flag.Bool("modes", false, "run the FELIP/SPL/RS+FD reporting-mode shootout and exit")
		mout    = flag.String("mout", "BENCH_PR8.json", "output path for the -modes JSON report")
		lbench  = flag.Bool("longitudinal", false, "run the memoized two-stage vs fresh-ε longitudinal benchmark and exit")
		lout    = flag.String("lout", "BENCH_PR9.json", "output path for the -longitudinal JSON report")
		dbench  = flag.Bool("megadomain", false, "run the mega-domain frequency-oracle shootout and exit")
		dout    = flag.String("dout", "BENCH_PR10.json", "output path for the -megadomain JSON report")
		smoke   = flag.Bool("smoke", false, "shrink the -restart benchmark to CI-smoke size")
	)
	flag.Parse()

	// Each selected benchmark mode runs in this order; if any ran, exit.
	modes := []struct {
		on  bool
		run func() error
	}{
		{*rbench, func() error { return runRestartBench(*rout, *reps, *smoke) }},
		{*mbench, func() error { return runModesBench(*mout) }},
		{*lbench, func() error { return runLongBench(*lout) }},
		{*dbench, func() error { return runMegaDomainBench(*dout) }},
	}
	ran := false
	for _, m := range modes {
		if !m.on {
			continue
		}
		if err := m.run(); err != nil {
			fmt.Fprintln(os.Stderr, "felipbench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if ran {
		return
	}

	p := experiment.Params{NumQueries: *queries, Seed: *seed}
	if *lambdas != "" {
		for _, tok := range strings.Split(*lambdas, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "felipbench: bad -lambdas value %q\n", tok)
				os.Exit(2)
			}
			p.Lambdas = append(p.Lambdas, v)
		}
	}
	switch {
	case *n > 0:
		p.N = *n
	case *paper:
		p.N = 1_000_000
	default:
		p.N = 100_000
	}
	if *only != "" {
		p.Datasets = strings.Split(*only, ",")
	}

	if *list {
		for _, f := range experiment.Figures(p) {
			fmt.Printf("%-10s %s\n", f.ID, f.Title)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "felipbench: -fig is required (try -list)")
		os.Exit(2)
	}

	var ids []string
	if *fig == "all" {
		for _, f := range experiment.Figures(p) {
			ids = append(ids, f.ID)
		}
	} else {
		id := *fig
		if len(id) == 1 && id[0] >= '1' && id[0] <= '7' {
			id = "fig" + id
		}
		ids = []string{id}
	}

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "felipbench:", err)
			os.Exit(1)
		}
		csvFile = f
		defer csvFile.Close()
	}
	for _, id := range ids {
		spec, err := experiment.FigureByID(p, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "felipbench:", err)
			os.Exit(2)
		}
		var w *os.File = progress
		var groups []experiment.GroupResult
		if w != nil {
			groups, err = experiment.RunFigure(spec, w)
		} else {
			groups, err = experiment.RunFigure(spec, nil)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "felipbench:", err)
			os.Exit(1)
		}
		experiment.Print(os.Stdout, spec, groups)
		if csvFile != nil {
			if err := experiment.WriteCSV(csvFile, spec, groups); err != nil {
				fmt.Fprintln(os.Stderr, "felipbench:", err)
				os.Exit(1)
			}
		}

		summary := experiment.Summary(groups)
		order := experiment.SortedStrategies(summary)
		fmt.Printf("mean MAE ranking:")
		for _, s := range order {
			fmt.Printf("  %s=%.5f", s, summary[s])
		}
		fmt.Println()
		fmt.Println()
	}
}
