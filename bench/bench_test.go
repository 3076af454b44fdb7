package main

import (
	"math"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at tiny sizes, untraced and
// traced, through the same code the command runs, and checks that each run
// passes its gates and emits every metric BENCHMARK.json names, finite and
// with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	// The test runs in bench/; BENCHMARK.json is at the repository root.
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, 7, 0.2, traced
			e, res, err := runWorkload(cfg, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, e.table())
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, traced, name, m.Value)
				case m.Value == 0 && name != "go.gc_pause_ms_per_s":
					// A tiny run can finish between two collections; every
					// other metric is never zero.
					t.Errorf("%s trace=%v: metric %s = 0", w, traced, name)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps 2: [10,50] counts once
		{ID: 4, Parent: 1, Start: 90, End: 130},  // reaches past the parent: only [90,100] counts
		{ID: 5, Parent: 1, Start: 150, End: 160}, // entirely outside: counts nothing
		{ID: 6, Parent: 2, Start: 12, End: 14},   // a grandchild does not reduce the parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 18, 3: 30, 4: 40, 6: 2} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

func TestSpanFile(t *testing.T) {
	for trace, want := range map[string]string{
		"":        "",
		"0":       "",
		"1":       filepath.Join(".bench_build", "trace", "live-round-seed3.jsonl"),
		"s.jsonl": "s.jsonl",
	} {
		if got := spanFile(trace, "live-round", 3); got != want {
			t.Errorf("-trace %q: span file %q, want %q", trace, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same", steady, []float64{101, 100, 99, 102, 100}, "within bound"},
		{"worse", steady, []float64{130, 131, 129, 130, 132}, "worse"},
		{"better", steady, []float64{80, 81, 79, 80, 82}, "better"},
		{"unresolved", steady, []float64{60, 100, 140, 70, 130}, "unresolved"},
	} {
		if got, _ := verdict(c.base, c.head, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
