package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"felip/internal/experiment"
)

// longReport is the BENCH_PR9.json shape: the memoized two-stage longitudinal
// arm against the fresh-ε baseline, same devices across every round — per-round
// estimation error and the cumulative privacy spend an all-rounds observer
// accumulates under each arm.
type longReport struct {
	Timestamp   string `json:"timestamp"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	N           int    `json:"n"`
	Rounds      int    `json:"rounds"`
	Attrs       int    `json:"attrs"`
	Domain      int    `json:"domain"`
	Methodology string `json:"methodology"`

	Results []experiment.LongitudinalResult `json:"results"`
}

const longMethodology = "The same device population reports across R rounds. The longitudinal arm " +
	"memoizes one GRR(ε_perm) randomization per device and perturbs it fresh each round so the " +
	"composed per-round channel is exactly GRR(ε_1); the baseline re-randomizes the true value " +
	"at GRR(ε_1) every round. Both arms run the identical OUG plan with GRR forced, fold " +
	"through the real collector, and score the per-attribute marginal MSE against the " +
	"dataset's exact frequencies. Cumulative spend is what an observer of rounds 1..r learns: " +
	"fixed ε_perm + ε_1 under memoization, r·ε_1 under the baseline."

// runLongBench runs the longitudinal trajectory benchmark and writes the JSON
// report.
func runLongBench(outPath string) error {
	cfg := experiment.LongitudinalConfig{
		N:        20000,
		Rounds:   10,
		Attrs:    4,
		Domain:   32,
		Progress: func(line string) { fmt.Fprintln(os.Stderr, line) },
	}
	fmt.Fprintf(os.Stderr, "felipbench: longitudinal n=%d rounds=%d attrs=%d domain=%d\n",
		cfg.N, cfg.Rounds, cfg.Attrs, cfg.Domain)

	results, err := experiment.RunLongitudinal(cfg)
	if err != nil {
		return err
	}
	rep := longReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		N:           cfg.N,
		Rounds:      cfg.Rounds,
		Attrs:       cfg.Attrs,
		Domain:      cfg.Domain,
		Methodology: longMethodology,
		Results:     results,
	}

	fmt.Printf("%-9s %5s %7s %12s %12s %6s %9s %10s\n",
		"eps_perm", "eps1", "rounds", "mean_mse", "fresh_mse", "ratio", "eps_cum", "fresh_cum")
	for _, r := range results {
		fmt.Printf("%-9.2f %5.2f %7d %12.3e %12.3e %6.2f %9.2f %10.2f\n",
			r.EpsPerm, r.Eps1, len(r.Rounds), r.MeanMSELongitudinal, r.MeanMSEFresh,
			r.MSERatio, r.EpsCumFinal, r.EpsFreshFinal)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "felipbench: wrote %s\n", outPath)
	return nil
}
