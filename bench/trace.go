package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced run's span recorder. Spans come only from the
// benchmark's own code: a RoundTripper on every client the benchmark builds
// (the load client and the coordinator's shard client), a wrapper around
// every Handler() it serves, and the layer pass's calls into each package.
// Nothing inside the program under test is instrumented.
//
// Linking: the RoundTripper stamps its span id into the spanHeader request
// header and the handler wrapper records that id as its span's parent. The
// handler also places its own id in the request context; the coordinator
// passes its request context on to its shard calls, so those client spans
// (and, through the header, the shards' handler spans) become its children.

// spanHeader carries a client span's id to the handler span it causes.
const spanHeader = "X-Bench-Span"

// span is one timed interval. Times are nanoseconds since the tracer's epoch.
// Reports is the number of reports the span covers (0 for non-report work):
// per-report layer calls are timed per frame or per chunk so the span count
// stays bounded.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Reports int    `json:"reports,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. on gates recording so the
// same deployment can run traced and untraced cycles.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f, recording it as a span named name covering reports reports,
// under parent, while tracing is on.
func (t *tracer) timed(parent uint64, name string, reports int, f func() error) error {
	start := t.now()
	err := f()
	if t.on.Load() {
		t.record(span{ID: t.newID(), Parent: parent, Name: name, Start: start, End: t.now(), Reports: reports})
	}
	return err
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type parentKey struct{}

type untracedKey struct{}

// untraced marks a request the transport sends without a span, so a traced
// run can interleave traced and untraced requests of the same load.
func untraced(ctx context.Context) context.Context {
	return context.WithValue(ctx, untracedKey{}, true)
}

func withParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// route names a request the way the metrics do: /v1/shard/state →
// shard_state, and a POST to /v1/query (a query batch) → query_batch.
func route(r *http.Request) string {
	name := strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1/"), "/", "_")
	if name == "query" && r.Method == http.MethodPost {
		name = "query_batch"
	}
	return name
}

// transport is the benchmark's RoundTripper. It always counts the request
// bytes of report submissions (the wire-cost metric) and, while tracing is
// on, records one client span per exchange, ending when the response body is
// closed.
type transport struct {
	base http.RoundTripper
	tr   *tracer
	// reportBytes totals the bodies posted to /v1/report and /v1/reports.
	reportBytes atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/report" || req.URL.Path == "/v1/reports" {
		t.reportBytes.Add(req.ContentLength)
	}
	if !t.tr.on.Load() || req.Context().Value(untracedKey{}) != nil {
		return t.base.RoundTrip(req)
	}
	s := span{ID: t.tr.newID(), Parent: parentFrom(req.Context()), Name: "http." + route(req) + ".rtt", Start: t.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.tr.now()
		t.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = t.tr.now()
		t.tr.record(s)
	}}
	return resp, nil
}

// spanBody ends its client span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrap returns h with a handler span around every request that carries a
// client span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if !t.on.Load() || parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Parent: parent, Name: "httpapi." + route(r) + ".handler", Start: t.now()}
		h.ServeHTTP(w, r.WithContext(withParent(r.Context(), s.ID)))
		s.End = t.now()
		t.record(s)
	})
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child reaching outside its parent only counts inside it.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, p := range spans {
		out[p.ID] = p.dur() - covered(p, children[p.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's interval.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
