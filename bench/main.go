// Command bench is the repository's pipeline benchmark. It drives a report
// from device perturbation through frame or JSON encoding, real HTTP,
// admission and dedup, WAL append and fsync, the oracle fold, seal/merge,
// estimation, engine warmup, archiving and λ-D queries, on four workloads
// (see README.md), and prints every metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1                                  # all workloads, untraced
//	bash bench/run.sh -workload round-close -seed 1            # one workload
//	bash bench/run.sh -workload live-round -seed 1 -trace 1    # traced per-layer breakdown
//	bash bench/run.sh -workload live-round -seed 1 -trace s.jsonl
//	bash bench/run.sh -compare base.jsonl -- head.jsonl
//
// The last line of a single-workload run is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics untraced, the
// per-layer metrics traced.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"ingest-frames", "ingest-json", "round-close", "live-round"}

// runLimit bounds one workload process; a run that has not finished by then
// is stopped and fails.
const runLimit = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "seed for the data, device perturbation and query stream")
		seconds  = flag.Float64("seconds", 10, "measured seconds per workload run")
		trace    = flag.String("trace", "0", "0 (or empty): untraced; 1: traced per-layer run, spans to .bench_build/trace/; any other value: traced, spans to that file")
		record   = flag.String("record", "", "append each run's result, with host details, to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare recorded runs: -compare <base files…> -- <head files…>")
	)
	flag.Parse()
	if *compare {
		code, err := runCompare("BENCHMARK.json", flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *record))
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	// A wedged run must still end, and end without a result line.
	go func() {
		time.Sleep(runLimit)
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runLimit)
		os.Exit(3)
	}()
	cfg := fullConfig()
	cfg.workload, cfg.seed, cfg.seconds = *workload, *seed, *seconds
	spans := spanFile(*trace, *workload, *seed)
	cfg.trace = spans != ""
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e, res, err := runWorkload(cfg, ".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := e.tr.writeFile(spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans written to %s\n", spans)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench: recording:", err)
			os.Exit(1)
		}
	}
	fmt.Print(e.table())
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spanFile turns the -trace value into the file a traced run writes its
// spans to, or "" for an untraced run.
func spanFile(trace, workload string, seed uint64) string {
	switch trace {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	}
	return trace
}

// runWorkload runs one workload in this process: plan, data, set-up,
// measured phase, gates, and (traced) the layer pass. Its working files live
// in a directory under parent that is removed at the end.
func runWorkload(cfg config, parent string) (*env, result, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	w := workloads[cfg.workload]
	cfg.cycles = max(2, int(math.Round(cfg.seconds/w.nominal)))
	e, err := newEnv(ctx, cfg, w.rows(cfg))
	if err != nil {
		return nil, result{}, err
	}
	if err := w.run(e); err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return e, e.result(), nil
}

// runAll runs every workload in its own child process, so each starts with a
// clean heap and metrics registry, and forwards their output. A span file
// named by -trace gets the workload's name before its extension.
func runAll(seed uint64, seconds float64, trace, record string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		t := trace
		if f := spanFile(trace, w, seed); f != "" && f == trace {
			ext := filepath.Ext(trace)
			t = strings.TrimSuffix(trace, ext) + "-" + w + ext
		}
		args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t}
		if record != "" {
			args = append(args, "-record", record)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// record is one line of a -record file.
type record struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Trace    bool            `json:"trace"`
	Host     string          `json:"host"`
	Result   json.RawMessage `json:"result"`
}

func appendRecord(path string, cfg config, line []byte) error {
	rec, err := json.Marshal(record{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hostInfo(), line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads every record line of the given files.
func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// hostInfo names the machine a run was measured on.
func hostInfo() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)))
}
