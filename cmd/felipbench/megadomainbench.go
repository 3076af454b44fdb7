package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"felip/internal/experiment"
)

// megaDomainReport is the BENCH_PR10.json shape: every frequency oracle
// swept over mega-size categorical domains on the two axes that decide the
// regime — estimation MSE and bytes on the wire per user.
type megaDomainReport struct {
	Timestamp   string    `json:"timestamp"`
	GoVersion   string    `json:"go_version"`
	NumCPU      int       `json:"num_cpu"`
	N           int       `json:"n"`
	Domains     []int     `json:"domains"`
	Epsilons    []float64 `json:"epsilons"`
	Zipf        float64   `json:"zipf"`
	Methodology string    `json:"methodology"`

	Cells []experiment.MegaDomainCell `json:"cells"`
}

const megaDomainMethodology = "Every cell draws the same Zipf(s) sample over a single categorical domain L, " +
	"perturbs each user through one frequency oracle at ε, ships the reports as 512-report " +
	"binary frames with fixed 4-hex-digit ids (HR records use the compact 10-byte tail; OUE " +
	"reports have no frame form, so their wire figure is the analytic packed-bitset record " +
	"and cells beyond the simulation cap are analytic-only, flagged simulated=false), folds " +
	"into the protocol's aggregator and estimates the full L-value frequency vector. MSE is " +
	"scored against the sample's exact frequencies over the whole domain; estimate_ms times " +
	"the fold+estimate step, which is where OLH pays its O(n·L) hash evaluations and HR its " +
	"O(K log K) transform. afo_choice records what the variance-aware planner picks at each " +
	"(L, ε): HR beyond the domain threshold while its variance stays within the bounded " +
	"ratio of OLH's, never below the threshold."

// runMegaDomainBench sweeps the mega-domain shootout and writes BENCH_PR10.json.
func runMegaDomainBench(outPath string) error {
	cfg := experiment.MegaDomainConfig{
		N:        20000,
		Domains:  []int{1 << 10, 1 << 14, 1 << 17},
		Epsilons: []float64{0.5, 1.0},
		Progress: func(line string) { fmt.Fprintln(os.Stderr, line) },
	}
	fmt.Fprintf(os.Stderr, "felipbench: mega-domain shootout n=%d domains=%v eps=%v\n",
		cfg.N, cfg.Domains, cfg.Epsilons)

	cells, err := experiment.RunMegaDomain(cfg)
	if err != nil {
		return err
	}
	rep := megaDomainReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		N:           cfg.N,
		Domains:     cfg.Domains,
		Epsilons:    cfg.Epsilons,
		Zipf:        1.1,
		Methodology: megaDomainMethodology,
		Cells:       cells,
	}

	fmt.Printf("%-4s %5s %8s %8s %12s %12s %12s %8s %4s\n",
		"fo", "eps", "L", "K", "bytes/user", "rec bytes", "mse", "est ms", "afo")
	for _, c := range cells {
		fmt.Printf("%-4s %5.2f %8d %8d %12.2f %12.1f %12.3e %8.1f %4s\n",
			c.Proto, c.Epsilon, c.Domain, c.PaddedDomain, c.BytesPerUser, c.RecordBytes, c.MSE, c.EstimateMillis, c.AFOChoice)
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
