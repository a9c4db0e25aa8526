// Package metrics is a small dependency-free instrumentation registry in
// the flat, allocation-light style of the audit-log exemplar's timing
// structs: atomic counters, gauges, and fixed-bucket histograms, with and
// without labels, rendered on demand in the Prometheus text exposition
// format (version 0.0.4) by Registry.WriteTo.
//
// Instruments are cheap enough for hot paths — a counter increment is one
// atomic add, a histogram observation is two atomic adds plus a bucket
// search — and the registry takes no locks on the update path, so the
// engine's workers, the journal's committer, and the HTTP handlers all
// record into one registry without contending with each other or with
// scrapes.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed cumulative buckets. Bounds are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Observations also accumulate into a sum, so scrapes can derive the
// mean as well as quantile estimates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus the +Inf bucket at the end
	sum    atomic.Uint64  // float64 bits, CAS-accumulated

	// Exemplars: the most recent traced observation per bucket, so an
	// operator can jump from a bad bucket to a concrete trace. Lazily
	// allocated on the first ObserveWithExemplar; plain Observe never
	// touches them.
	exmu sync.Mutex
	ex   []exemplar
}

// exemplar links one bucket to the trace id of a recent observation that
// landed in it (OpenMetrics exemplar semantics: last write wins).
type exemplar struct {
	traceID string
	value   float64
	tsNS    int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records one value and, when traceID is non-empty,
// remembers it as the bucket's exemplar. The exposition layer shows
// exemplars only when asked (?exemplars=1), so default scrapes are
// byte-identical with or without them.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exmu.Lock()
	if h.ex == nil {
		h.ex = make([]exemplar, len(h.bounds)+1)
	}
	h.ex[i] = exemplar{traceID: traceID, value: v, tsNS: time.Now().UnixNano()}
	h.exmu.Unlock()
}

// exemplarAt snapshots the bucket's exemplar, if any.
func (h *Histogram) exemplarAt(i int) (exemplar, bool) {
	h.exmu.Lock()
	defer h.exmu.Unlock()
	if h.ex == nil || h.ex[i].traceID == "" {
		return exemplar{}, false
	}
	return h.ex[i], true
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExponentialBuckets returns n bounds starting at start, each factor times
// the previous — the usual latency bucket shape.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets spans 50µs to ~200s in factor-4 steps: wide enough for
// both the microsecond mapping kernels and multi-second Monte Carlo jobs.
var DefLatencyBuckets = ExponentialBuckets(50e-6, 4, 12)

// kind tags a family for the TYPE line.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one registered metric name: either a single unlabeled
// instrument or a set of labeled children.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histograms only

	labels []string // empty for unlabeled families

	mu       sync.Mutex
	children map[string]any // label-values key -> *Counter/*Gauge/*Histogram
	order    []string       // insertion order of children keys

	single any            // unlabeled instrument
	fn     func() float64 // gauge-func families
}

// Registry holds families and renders them. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate or invalid name:
// registration happens at construction time with literal names, so a
// collision is a programming error, not a runtime condition.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic("metrics: invalid metric name " + f.name)
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic("metrics: invalid label name " + l)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic("metrics: duplicate metric name " + f.name)
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, single: c})
	return c
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, single: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is pulled from fn at scrape
// time — for values that already live elsewhere (queue depth, cache size,
// journal seq) and shouldn't be double-booked.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, fn: fn})
}

// NewHistogram registers and returns an unlabeled histogram with the given
// ascending bucket upper bounds (nil means DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := &family{name: name, help: help, kind: kindHistogram, bounds: histBounds(bounds)}
	h := newHistogram(f.bounds)
	f.single = h
	r.register(f)
	return h
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: kindCounter, labels: labels,
		children: make(map[string]any)}
	r.register(f)
	return &CounterVec{f}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, kind: kindGauge, labels: labels,
		children: make(map[string]any)}
	r.register(f)
	return &GaugeVec{f}
}

// NewHistogramVec registers a labeled histogram family (nil bounds means
// DefLatencyBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: kindHistogram, labels: labels,
		bounds: histBounds(bounds), children: make(map[string]any)}
	r.register(f)
	return &HistogramVec{f}
}

// With returns the counter for the given label values (created on first
// use). Hot paths should capture the child once instead of resolving the
// labels per event when the values are fixed.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Sum totals the vec's existing series whose label named label has the
// given value; an empty label totals every series. It only reads: no series
// is created, so the exposition is the same before and after the call.
func (v *CounterVec) Sum(label, value string) int64 {
	f := v.f
	at := -1
	if label != "" {
		if at = slices.Index(f.labels, label); at < 0 {
			panic("metrics: " + f.name + " has no label " + label)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for key, c := range f.children {
		if at < 0 || strings.Split(key, "\x00")[at] == value {
			n += c.(*Counter).Value()
		}
	}
	return n
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	bounds := v.f.bounds
	return v.f.child(values, func() any { return newHistogram(bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func histBounds(bounds []float64) []float64 {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending")
		}
	}
	return bounds
}

func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// WriteTo renders every family in registration order (children sorted by
// label values, so output is deterministic) in the Prometheus text
// exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.writeTo(w, false)
}

// WriteToWithExemplars renders like WriteTo plus an OpenMetrics-style
// exemplar annotation ("# {trace_id=...} value timestamp") after each
// histogram bucket that has one.
func (r *Registry) WriteToWithExemplars(w io.Writer) (int64, error) {
	return r.writeTo(w, true)
}

func (r *Registry) writeTo(w io.Writer, exemplars bool) (int64, error) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	var buf []byte
	for _, f := range families {
		buf = f.render(buf[:0], exemplars)
		if _, err := cw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func (f *family) render(buf []byte, exemplars bool) []byte {
	if f.help != "" {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "# TYPE "...)
	buf = append(buf, f.name...)
	buf = append(buf, ' ')
	buf = append(buf, f.kind...)
	buf = append(buf, '\n')
	if f.fn != nil {
		return appendSample(buf, f.name, "", f.fn())
	}
	if f.single != nil {
		return f.renderChild(buf, "", f.single, exemplars)
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for _, i := range idx {
		buf = f.renderChild(buf, labelString(f.labels, strings.Split(keys[i], "\x00"), ""), children[i], exemplars)
	}
	return buf
}

func (f *family) renderChild(buf []byte, labels string, c any, exemplars bool) []byte {
	switch v := c.(type) {
	case *Counter:
		return appendSample(buf, f.name, labels, float64(v.Value()))
	case *Gauge:
		return appendSample(buf, f.name, labels, float64(v.Value()))
	case *Histogram:
		var cum int64
		for i, bound := range f.bounds {
			cum += v.counts[i].Load()
			buf = appendSample(buf, f.name+"_bucket", mergeLE(labels, formatFloat(bound)), float64(cum))
			if exemplars {
				buf = appendExemplar(buf, v, i)
			}
		}
		cum += v.counts[len(f.bounds)].Load()
		buf = appendSample(buf, f.name+"_bucket", mergeLE(labels, "+Inf"), float64(cum))
		if exemplars {
			buf = appendExemplar(buf, v, len(f.bounds))
		}
		buf = appendSample(buf, f.name+"_sum", labels, v.Sum())
		buf = appendSample(buf, f.name+"_count", labels, float64(cum))
		return buf
	}
	return buf
}

// labelString renders {a="x",b="y"} (plus an optional extra pair) or ""
// when there are no labels.
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLE splices an le label into an existing (possibly empty) label set.
func mergeLE(labels, le string) string {
	pair := `le="` + le + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func appendSample(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = append(buf, formatFloat(v)...)
	return append(buf, '\n')
}

// appendExemplar rewrites the just-appended bucket line to carry its
// exemplar, OpenMetrics style: "... 5 # {trace_id=\"abc\"} 0.003 <ts>\n".
func appendExemplar(buf []byte, h *Histogram, i int) []byte {
	e, ok := h.exemplarAt(i)
	if !ok {
		return buf
	}
	buf = buf[:len(buf)-1] // drop the trailing newline of the bucket line
	buf = append(buf, ` # {trace_id="`...)
	buf = append(buf, e.traceID...)
	buf = append(buf, `"} `...)
	buf = append(buf, formatFloat(e.value)...)
	buf = append(buf, ' ')
	buf = append(buf, strconv.FormatFloat(float64(e.tsNS)/1e9, 'f', 3, 64)...)
	return append(buf, '\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a Prometheus scrape target. Appending
// ?exemplars=1 adds OpenMetrics-style exemplar annotations to histogram
// bucket lines; the default exposition is unchanged.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.writeTo(w, req.URL.Query().Get("exemplars") == "1"); err != nil {
			// Too late for a status change; the client sees a short body.
			return
		}
	})
}

// InstrumentRoute wraps the handler of one HTTP route so that every request
// observes its latency on seconds (labelled route) and counts its response
// on requests (labelled route and code). route is the mux pattern, not the
// request path, so label cardinality is fixed regardless of path values; a
// streaming response observes its whole lifetime. The writer h receives
// forwards Flush, so streaming handlers still reach the real http.Flusher.
func InstrumentRoute(seconds *HistogramVec, requests *CounterVec, route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		seconds.With(route).Observe(time.Since(start).Seconds())
		requests.With(route, strconv.Itoa(sw.status())).Inc()
	}
}

// statusWriter records the response status for InstrumentRoute.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// status is the effective response code: a handler that never wrote (the
// client disconnected mid-long-poll) counts as 200, matching what net/http
// would have sent.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
