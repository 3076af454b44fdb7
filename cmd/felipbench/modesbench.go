package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"felip/internal/experiment"
)

// modesReport is the BENCH_PR8.json shape: the FELIP / SPL / RS+FD reporting
// mode shootout — per-mode estimation accuracy and wire traffic at a fixed
// population, swept across ε and dimensionality.
type modesReport struct {
	Timestamp   string    `json:"timestamp"`
	GoVersion   string    `json:"go_version"`
	NumCPU      int       `json:"num_cpu"`
	N           int       `json:"n"`
	Domains     []int     `json:"domains"`
	Epsilons    []float64 `json:"epsilons"`
	Dims        []int     `json:"dims"`
	Methodology string    `json:"methodology"`

	Cells []experiment.ModeCell `json:"cells"`
}

const modesMethodology = "Every cell runs the full incremental pipeline on the same normal-distributed " +
	"dataset: plan the grids for (strategy OUG, ε, mode), perturb each user through the " +
	"mode client (one report under FELIP; one per grid under SPL at ε/m and RS+FD at the " +
	"amplified ε' with uniform fake data off the sampled grid), meter the wire cost as " +
	"512-report binary frames (v1 framing for FELIP, v2 mode framing otherwise), fold into " +
	"the collector and finalize. MSE compares the estimated per-attribute value-frequency " +
	"marginals against the dataset's exact frequencies, so within a (ε, domain, d) point " +
	"only the reporting mode differs. The domain sweep varies per-attribute cell counts: " +
	"GRR's variance grows with the domain while OLH's does not, so the mode ranking can " +
	"flip between small and large domains."

// runModesBench sweeps the three-way mode shootout and writes the JSON report.
func runModesBench(outPath string) error {
	cfg := experiment.ModeShootoutConfig{
		N:        50000,
		Epsilons: []float64{0.5, 1.0, 2.0},
		Dims:     []int{4, 8},
		Domains:  []int{16, 32, 64},
		Progress: func(line string) { fmt.Fprintln(os.Stderr, line) },
	}
	fmt.Fprintf(os.Stderr, "felipbench: mode shootout n=%d eps=%v dims=%v domains=%v\n",
		cfg.N, cfg.Epsilons, cfg.Dims, cfg.Domains)

	cells, err := experiment.RunModeShootout(cfg)
	if err != nil {
		return err
	}
	rep := modesReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		N:           cfg.N,
		Domains:     cfg.Domains,
		Epsilons:    cfg.Epsilons,
		Dims:        cfg.Dims,
		Methodology: modesMethodology,
		Cells:       cells,
	}

	fmt.Printf("%-6s %5s %6s %3s %6s %9s %12s %12s\n", "mode", "eps", "dom", "d", "grids", "reports", "bytes/user", "mse")
	for _, c := range cells {
		fmt.Printf("%-6s %5.2f %6d %3d %6d %9d %12.1f %12.3e\n",
			c.Mode, c.Epsilon, c.Domain, c.Attrs, c.Grids, c.Reports, c.BytesPerUser, c.MSE)
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
