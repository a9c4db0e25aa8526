package metrics

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text rendering of one
// registry holding every instrument shape: an external scraper parses this
// byte-for-byte, so format drift is a wire-compatibility break, not a
// cosmetic one.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Total operations.")
	c.Add(3)
	g := r.NewGauge("test_depth", "Current depth.")
	g.Set(-2)
	r.NewGaugeFunc("test_pulled", "Pulled at scrape.", func() float64 { return 7.5 })
	cv := r.NewCounterVec("test_rejects_total", "Rejects by reason.", "reason")
	cv.With("overloaded").Add(2)
	cv.With("quota").Inc()
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_ops_total Total operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_depth Current depth.
# TYPE test_depth gauge
test_depth -2
# HELP test_pulled Pulled at scrape.
# TYPE test_pulled gauge
test_pulled 7.5
# HELP test_rejects_total Rejects by reason.
# TYPE test_rejects_total counter
test_rejects_total{reason="overloaded"} 2
test_rejects_total{reason="quota"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 6.05
test_latency_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramBuckets checks boundary placement: le buckets are inclusive
// upper bounds, values past the last bound land in +Inf only.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	// Non-cumulative: (<=1): 0.5, 1 -> 2; (<=2): 1.0000001, 2 -> 2;
	// (<=4): 4 -> 1; +Inf: 4.5, 100 -> 2.
	want := []int64{2, 2, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+2+4+4.5+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// TestConcurrentScrape hammers every instrument kind from parallel
// goroutines while scraping; run under -race this is the data-race proof
// for the lock-free update paths.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	cv := r.NewCounterVec("cv_total", "", "k")
	hv := r.NewHistogramVec("hv_seconds", "", nil, "k")
	r.NewGaugeFunc("gf", "", func() float64 { return float64(c.Value()) })

	const writers = 8
	const perWriter = 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b", "c"}[w%3]
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				cv.With(key).Inc()
				hv.With(key).Observe(float64(i) * 1e-5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Error(err)
				return
			}
			if !strings.Contains(sb.String(), "c_total") {
				t.Error("scrape missing c_total")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != writers*perWriter {
		t.Errorf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	total := int64(0)
	for _, k := range []string{"a", "b", "c"} {
		total += cv.With(k).Value()
	}
	if total != writers*perWriter {
		t.Errorf("vec total = %d, want %d", total, writers*perWriter)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "X.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 1") {
		t.Errorf("body = %q", buf[:n])
	}
}

// TestInstrumentRoute pins the per-route HTTP instrumentation the engine
// and gateway share: the recorded status is the one the handler set, 200
// when it only wrote a body, never wrote at all, or set a status after the
// body, and Flush reaches the underlying writer so streaming handlers keep
// working.
func TestInstrumentRoute(t *testing.T) {
	r := NewRegistry()
	seconds := r.NewHistogramVec("test_http_seconds", "Latency.", nil, "route")
	requests := r.NewCounterVec("test_http_requests_total", "Requests.", "route", "code")
	cases := []struct {
		route string
		h     http.HandlerFunc
		code  string
	}{
		{"/explicit", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusTeapot) }, "418"},
		{"/body", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") }, "200"},
		{"/silent", func(http.ResponseWriter, *http.Request) {}, "200"},
		{"/late", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "ok")
			w.WriteHeader(http.StatusInternalServerError) // too late: 200 is on the wire
		}, "200"},
		{"/flush", func(w http.ResponseWriter, _ *http.Request) {
			fl, ok := w.(http.Flusher)
			if !ok {
				t.Error("instrumented writer does not implement http.Flusher")
				return
			}
			fl.Flush()
		}, "200"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		InstrumentRoute(seconds, requests, tc.route, tc.h)(rec, httptest.NewRequest("GET", tc.route, nil))
		if got := requests.With(tc.route, tc.code).Value(); got != 1 {
			t.Errorf("%s: requests{code=%s} = %d, want 1", tc.route, tc.code, got)
		}
		if got := seconds.With(tc.route).Count(); got != 1 {
			t.Errorf("%s: latency observations = %d, want 1", tc.route, got)
		}
		if tc.route == "/flush" && !rec.Flushed {
			t.Error("Flush did not reach the underlying writer")
		}
	}
}

// TestCounterVecSum: Sum totals the existing series, all of them or those
// with one label value, and never creates a series, so the exposition is
// byte-identical before and after it.
func TestCounterVecSum(t *testing.T) {
	r := NewRegistry()
	jobs := r.NewCounterVec("test_jobs_total", "Jobs.", "kind", "outcome")
	empty := r.NewCounterVec("test_empty_total", "Never incremented.", "reason")
	jobs.With("a", "ok").Add(3)
	jobs.With("a", "error").Add(2)
	jobs.With("b", "ok").Add(5)
	jobs.With("b", "error").Inc()
	jobs.With("c", "ok")

	var before strings.Builder
	if _, err := r.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		vec          *CounterVec
		label, value string
		want         int64
	}{
		{jobs, "", "", 11},
		{jobs, "outcome", "error", 3},
		{jobs, "outcome", "ok", 8},
		{jobs, "kind", "b", 6},
		{jobs, "kind", "d", 0},
		{empty, "", "", 0},
		{empty, "reason", "overloaded", 0},
	} {
		if got := tc.vec.Sum(tc.label, tc.value); got != tc.want {
			t.Errorf("%s.Sum(%q, %q) = %d, want %d", tc.vec.f.name, tc.label, tc.value, got, tc.want)
		}
	}
	var after strings.Builder
	if _, err := r.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("Sum changed the exposition:\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	for name, fn := range map[string]func(){
		"duplicate":   func() { r.NewCounter("dup_total", "") },
		"bad name":    func() { r.NewCounter("9bad", "") },
		"bad label":   func() { r.NewCounterVec("ok_total", "", "bad-label") },
		"bad bounds":  func() { r.NewHistogram("h_rev", "", []float64{2, 1}) },
		"label arity": func() { r.NewCounterVec("arity_total", "", "a", "b").With("only-one") },
		"empty name":  func() { r.NewGauge("", "") },
		"sum label":   func() { r.NewCounterVec("sum_total", "", "a").Sum("b", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("xbar_ex_seconds", "exemplar test", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveWithExemplar(0.05, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveWithExemplar(0.5, "") // empty trace id: counted, no exemplar

	// Default exposition is byte-identical to a registry without exemplars.
	var plain strings.Builder
	if _, err := r.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("default exposition leaks exemplars:\n%s", plain.String())
	}

	var with strings.Builder
	if _, err := r.WriteToWithExemplars(&with); err != nil {
		t.Fatal(err)
	}
	out := with.String()
	if !strings.Contains(out, `xbar_ex_seconds_bucket{le="0.1"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.05 `) {
		t.Fatalf("exemplar annotation missing or malformed:\n%s", out)
	}
	if strings.Count(out, "trace_id") != 1 {
		t.Fatalf("want exactly one exemplar, got:\n%s", out)
	}

	// The handler gates exemplars on ?exemplars=1.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		q    string
		want bool
	}{{"", false}, {"?exemplars=1", true}} {
		resp, err := http.Get(srv.URL + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := strings.Contains(string(body), "trace_id"); got != tc.want {
			t.Errorf("GET %q exemplars=%v, want %v", tc.q, got, tc.want)
		}
	}
}
