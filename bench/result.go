package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric, its unit, and how a finished run computes it.
type metricDef struct {
	name, unit string
	value      func(e *env) float64
}

// endToEnd are the untraced run's metrics, one set per workload. The
// latencies of single requests and the closed loops' throughput are printed
// in the table but have no bound: on a host shared with other machines they
// swing with the time those machines take (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", func(e *env) float64 { return quantile(e.run.setups, 0.5) }},
	{"cpu_us_per_report", "us", func(e *env) float64 {
		var cpu time.Duration
		for _, c := range e.run.cycles {
			cpu += c.cpu
		}
		return float64(cpu) / 1e3 / float64(e.sentReports())
	}},
	{"close_p50_ms", "ms", func(e *env) float64 { return quantile(e.run.closes, 0.5) }},
	{"query_cpu_us", "us", func(e *env) float64 { return quantile(e.run.probeCPU, 0.5) }},
	{"answer_mae", "fraction", func(e *env) float64 { return mean(e.run.absErr) }},
	{"wire_bytes_per_report", "B", func(e *env) float64 {
		return float64(e.tp.reportBytes.Load()) / float64(e.sentReports())
	}},
	{"heap_mib_per_mreport", "MiB", func(e *env) float64 {
		return e.run.heapBytes / (1 << 20) / (float64(e.run.heapReports) / 1e6)
	}},
}

// perLayer are the traced run's metrics. Per-report timings divide each
// span by the reports it covers; per-call timings are span durations. Every
// timing is the median over its spans.
var perLayer = []metricDef{
	perReport("core.perturb_ns", "core.perturb"),
	perReport("wire.encode_ns", "wire.encode"),
	perReport("wire.decode_ns", "wire.decode"),
	perReport("httpapi.dedup_ns", "httpapi.dedup"),
	perReport("core.check_ns", "core.check"),
	perReport("reportlog.append_ns", "reportlog.append"),
	perCall("reportlog.sync_us", "us", "reportlog.sync"),
	perReport("core.add_ns", "core.add"),
	perReport("httpapi.ingest_ns", "httpapi.ingest"),
	{"httpapi.remainder_ns", "ns", func(e *env) float64 { return e.ingestNS() - e.layersNS() }},
	{"harness.layer_coverage", "ratio", func(e *env) float64 { return e.layersNS() / e.ingestNS() }},
	counted("httpapi.allocs_per_report", "count"),
	counted("reportlog.bytes_per_report", "B"),
	counted("reportlog.syncs_per_report", "count"),
	{"fo.olh.fold_ns_per_report", "ns", func(e *env) float64 {
		return e.regDelta("fo.olh.fold.ns") / e.regDelta("fo.olh.fold_reports")
	}},
	{"fo.olh.estimate_ms", "ms", func(e *env) float64 {
		return e.regDelta("fo.olh.estimate.ns") / 1e6 / float64(len(e.run.closes))
	}},
	perReport("cluster.route_ns", "cluster.route"),
	perCall("core.export_ms", "ms", "core.export"),
	counted("wire.state_bytes", "B"),
	perCall("core.import_ms", "ms", "core.import"),
	perCall("core.finalize_ms", "ms", "core.finalize"),
	perCall("serve.new_engine_ms", "ms", "serve.new_engine"),
	perCall("serve.warmup_ms", "ms", "serve.warmup"),
	perCall("archive.write_ms", "ms", "archive.write"),
	counted("archive.snapshot_bytes", "B"),
	perCall("query.parse_us", "us", "query.parse"),
	perCall("serve.answer_us", "us", "serve.answer"),
	counted("serve.matrix_cache.hit_ratio", "ratio"),
	perCall("http.ingest.rtt_us", "us", "http.reports.rtt", "http.report.rtt"),
	perCall("httpapi.ingest.handler_us", "us", "httpapi.reports.handler", "httpapi.report.handler"),
	selfTime("http.ingest.transport_us", "us", "http.reports.rtt", "http.report.rtt"),
	perCall("http.finalize.rtt_ms", "ms", "http.finalize.rtt"),
	perCall("httpapi.finalize.handler_ms", "ms", "httpapi.finalize.handler"),
	selfTime("http.finalize.transport_us", "us", "http.finalize.rtt"),
	perCall("http.query.rtt_us", "us", "http.query.rtt"),
	perCall("httpapi.query.handler_us", "us", "httpapi.query.handler"),
	selfTime("http.query.transport_us", "us", "http.query.rtt"),
	{"go.alloc_bytes_per_report", "B", func(e *env) float64 {
		var b uint64
		for _, c := range e.run.cycles {
			b += c.allocBytes
		}
		return float64(b) / float64(e.sentReports())
	}},
	{"go.gc_pause_ms_per_s", "ms/s", func(e *env) float64 {
		var ns uint64
		var s float64
		for _, c := range e.run.cycles {
			ns, s = ns+c.pauseNS, s+c.seconds
		}
		return float64(ns) / 1e6 / s
	}},
	// Traced ÷ untraced throughput, from the interleaved submissions: with a
	// fixed number of closed-loop clients, throughput is inversely
	// proportional to the mean acknowledgement latency.
	{"harness.trace_overhead", "ratio", func(e *env) float64 {
		var ms [2][]float64 // traced, untraced
		for _, c := range e.run.cycles {
			for _, a := range c.acks {
				if a.odd {
					ms[1] = append(ms[1], a.ms)
				} else {
					ms[0] = append(ms[0], a.ms)
				}
			}
		}
		return mean(ms[1]) / mean(ms[0])
	}},
}

var unitScale = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

func perReport(name, spanName string) metricDef {
	return metricDef{name, "ns", func(e *env) float64 { return perReportMedian(e.spans(spanName)) }}
}

func perCall(name, unit string, spanNames ...string) metricDef {
	return metricDef{name, unit, func(e *env) float64 { return perCallMedian(e.spans(spanNames...)) / unitScale[unit] }}
}

// selfTime is the median self time of the named client spans: the exchange
// minus the handler span it caused, i.e. transport, framing and client work.
func selfTime(name, unit string, spanNames ...string) metricDef {
	return metricDef{name, unit, func(e *env) float64 {
		self := selfTimes(e.tr.snapshot())
		var xs []float64
		for _, s := range e.spans(spanNames...) {
			xs = append(xs, float64(self[s.ID])/unitScale[unit])
		}
		return quantile(xs, 0.5)
	}}
}

func counted(name, unit string) metricDef {
	return metricDef{name, unit, func(e *env) float64 {
		if v, ok := e.layer[name]; ok {
			return v
		}
		return math.NaN()
	}}
}

// spans returns the recorded spans with any of the given names.
func (e *env) spans(names ...string) []span {
	var out []span
	for _, s := range e.tr.snapshot() {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// ingestSteps are the layer pass's ingest steps, in the server's order.
var ingestSteps = []string{"wire.decode", "httpapi.dedup", "core.check", "reportlog.append", "reportlog.sync", "core.add"}

// ingestNS is the server's whole ingest call per report, median over its
// spans.
func (e *env) ingestNS() float64 { return perReportMedian(e.spans("httpapi.ingest")) }

// layersNS is the layer pass's ingest per report: the sum of its steps'
// per-report medians (a sync span covers the reports it made durable).
// Medians keep the comparison clear of the rare slow frames (collections,
// the fold's buffer flushes) that both sides see at different times.
// Subtracted from ingestNS it leaves what no step covers: staging, counters
// and dispositions inside the server's call.
func (e *env) layersNS() float64 {
	var total float64
	for _, name := range ingestSteps {
		total += perReportMedian(e.spans(name))
	}
	return total
}

func perReportMedian(spans []span) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Reports > 0 {
			xs = append(xs, float64(s.dur())/float64(s.Reports))
		}
	}
	return quantile(xs, 0.5)
}

func perCallMedian(spans []span) float64 {
	var xs []float64
	for _, s := range spans {
		xs = append(xs, float64(s.dur()))
	}
	return quantile(xs, 0.5)
}

func (e *env) regDelta(key string) float64 {
	return float64(e.reg[1][key] - e.reg[0][key])
}

// rate is the ingest throughput over the measured cycles.
func (e *env) rate() float64 {
	var seconds float64
	for _, c := range e.run.cycles {
		seconds += c.seconds
	}
	return float64(e.sentReports()) / seconds
}

// ackMS is every acknowledgement latency of the measured cycles.
func (e *env) ackMS() []float64 {
	var out []float64
	for _, c := range e.run.cycles {
		for _, a := range c.acks {
			out = append(out, a.ms)
		}
	}
	return out
}

// sentReports is the reports the load submitted over HTTP.
func (e *env) sentReports() int {
	n := 0
	for _, c := range e.run.cycles {
		n += c.reports
	}
	return n
}

// result assembles the run's final line: the end-to-end metrics untraced,
// the per-layer metrics traced.
func (e *env) result() result {
	defs := endToEnd
	if e.cfg.trace {
		defs = perLayer
	}
	r := result{
		Correct:   len(e.run.gates) == 0,
		Attempted: e.run.attempted,
		Failed:    e.run.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: d.value(e), Unit: d.unit}
	}
	return r
}

// table renders the human-readable breakdown printed before the result
// line: each timing sample with its tail and count, and the gates.
func (e *env) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed=%d seconds=%g trace=%v %s\n", e.cfg.workload, e.cfg.seed, e.cfg.seconds, e.cfg.trace, hostInfo())
	fmt.Fprintf(&b, "#   grids=%d measured=%.2fs cycles=%d reports=%d (%.4g reports/s) attempted=%d failed=%d\n",
		len(e.specs), e.elapsed, len(e.run.cycles), e.sentReports(), e.rate(), e.run.attempted, e.run.failed)
	for _, row := range []struct {
		name string
		xs   []float64
		unit string
	}{
		{"setup", e.run.setups, "s"},
		{"ack", e.ackMS(), "ms"},
		{"close", e.run.closes, "ms"},
		{"query", e.run.queries, "ms"},
		{"late", e.run.late, "ms"},
	} {
		if len(row.xs) > 0 {
			fmt.Fprintf(&b, "#   %-6s %s\n", row.name, describe(row.xs, row.unit))
		}
	}
	var rates []float64
	for _, c := range e.run.cycles {
		rates = append(rates, float64(c.reports)/c.seconds)
	}
	fmt.Fprintf(&b, "#   cycle  %s\n", describe(rates, "reports/s"))
	if e.cfg.trace {
		byName := make(map[string][]float64)
		for _, s := range e.tr.snapshot() {
			byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		}
		for _, name := range sortedKeys(byName) {
			fmt.Fprintf(&b, "#   span %-26s %s\n", name, describe(byName[name], "us"))
		}
	}
	for _, g := range e.run.gates {
		fmt.Fprintf(&b, "#   GATE FAILED: %s\n", g)
	}
	return b.String()
}
