package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	var spec benchmarkSpec
	if err != nil {
		return spec, err
	}
	err = json.Unmarshal(raw, &spec)
	return spec, err
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method): the same quartiles the acceptance spread is computed with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		ld, m, n := len(s), len(s)+1, 4
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q(1), q(2), q(3)
}

// verdict compares one metric's base and head runs. change is the relative
// move of the median in the worse direction (positive = worse).
func verdict(base, head []float64, lowerBetter bool, bound float64) (string, float64) {
	b1, bm, b3 := quartiles(base)
	h1, hm, h3 := quartiles(head)
	change := (hm - bm) / math.Abs(bm)
	if !lowerBetter {
		change = -change
	}
	spreadB := (b3 - b1) / math.Abs(bm)
	spreadH := (h3 - h1) / math.Abs(hm)
	// wins counts the (head, base) pairs the head run wins.
	wins := 0
	for _, h := range head {
		for _, b := range base {
			if (lowerBetter && h < b) || (!lowerBetter && h > b) {
				wins++
			}
		}
	}
	pairs := len(head) * len(base)
	switch {
	case wins*10 >= pairs*9 && change < -spreadB:
		return "better", change
	case math.Max(spreadB, spreadH) > bound && wins < pairs:
		return "unresolved", change
	case change > bound:
		return "worse", change
	default:
		return "within bound", change
	}
}

// runCompare prints, for every metric and workload found on both sides, each
// side's median and quartiles and a verdict, and returns exit code 1 when any
// end-to-end metric got worse by more than its bound.
func runCompare(specPath string, args []string) (int, error) {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		return 2, fmt.Errorf("usage: -compare <base files…> -- <head files…>")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	base, err := readRecords(args[:split])
	if err != nil {
		return 2, err
	}
	head, err := readRecords(args[split+1:])
	if err != nil {
		return 2, err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range recs {
			var res result
			if json.Unmarshal(r.Result, &res) != nil {
				continue
			}
			for name, m := range res.Metrics {
				out[key{r.Workload, name}] = append(out[key{r.Workload, name}], m.Value)
			}
		}
		return out
	}
	b, h := collect(base), collect(head)
	type row struct {
		name, unit, better string
		bound              float64
		layer              bool
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound, false})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Unit, m.Better, 0, true})
	}
	worse := false
	fmt.Printf("%-14s %-30s %-34s %-34s %8s  %s\n", "workload", "metric", "base p25/p50/p75", "head p25/p50/p75", "change", "verdict")
	for _, w := range workloadOrder {
		for _, r := range rows {
			bv, hv := b[key{w, r.name}], h[key{w, r.name}]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v, change := verdict(bv, hv, r.better == "lower", r.bound)
			if r.layer {
				v = "per-layer, no bound"
			} else if v == "worse" {
				worse = true
			}
			b1, bm, b3 := quartiles(bv)
			h1, hm, h3 := quartiles(hv)
			fmt.Printf("%-14s %-30s %-34s %-34s %+7.1f%%  %s (n=%d/%d, bound %g%%)\n", w, r.name+" ["+r.unit+"]",
				fmt.Sprintf("%.4g/%.4g/%.4g", b1, bm, b3), fmt.Sprintf("%.4g/%.4g/%.4g", h1, hm, h3),
				100*change, v, len(bv), len(hv), 100*r.bound)
		}
	}
	if worse {
		fmt.Println(strings.Repeat("-", 20), "worse: at least one end-to-end metric regressed past its bound")
		return 1, nil
	}
	return 0, nil
}
