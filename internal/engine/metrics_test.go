package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetrics fetches GET /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the sample value of one exposition line by its full
// series name (including any label set), failing if absent.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsEndpoint drives a journaled engine through cache misses, cache
// hits, and overload rejects, then checks GET /metrics exposes every metric
// family the observability contract promises — engine, journal, HTTP,
// quota, and replication — with the counters agreeing with the traffic.
func TestMetricsEndpoint(t *testing.T) {
	e := New(Options{Workers: 2, JournalDir: t.TempDir()})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	for i := 0; i < 2; i++ { // second round hits the cache
		resp := postJobsAs(t, srv.URL, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		waitForStats(t, e, func(s Stats) bool { return s.Completed == int64(i+1) })
	}

	body := scrapeMetrics(t, srv.URL)
	for _, family := range []string{
		// engine
		"xbar_engine_queue_wait_seconds", "xbar_engine_job_seconds",
		"xbar_engine_jobs_total", "xbar_engine_submitted_jobs_total",
		"xbar_engine_cache_hits_total",
		"xbar_engine_cache_misses_total", "xbar_engine_dedup_total",
		"xbar_engine_rejects_total", "xbar_engine_workers",
		"xbar_engine_queue_depth", "xbar_engine_cache_entries",
		// journal
		"xbar_journal_commit_seconds", "xbar_journal_commit_records",
		"xbar_journal_appends_total", "xbar_journal_last_seq",
		"xbar_journal_records", "xbar_journal_segments",
		"xbar_journal_tail_reads_total", "xbar_journal_compactions_total",
		// http + quota
		"xbar_http_request_seconds", "xbar_http_requests_total",
		"xbar_http_sse_subscribers", "xbar_quota_rejects_total",
		// replication
		"xbar_replication_applied_total", "xbar_replication_skipped_total",
		"xbar_replication_pull_errors_total", "xbar_replication_lag",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}

	if v := metricValue(t, body, "xbar_engine_cache_misses_total"); v != 1 {
		t.Errorf("cache_misses_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "xbar_engine_cache_hits_total"); v != 1 {
		t.Errorf("cache_hits_total = %v, want 1", v)
	}
	if v := metricValue(t, body, `xbar_engine_jobs_total{kind="synthesize-two-level",outcome="ok"}`); v != 2 {
		t.Errorf("jobs_total{synthesize-two-level,ok} = %v, want 2", v)
	}
	// One kernel ran; its latency histogram must hold exactly one sample
	// and the +Inf bucket must be cumulative over all of them.
	if v := metricValue(t, body, `xbar_engine_job_seconds_count{kind="synthesize-two-level"}`); v != 1 {
		t.Errorf("job_seconds_count = %v, want 1", v)
	}
	if v := metricValue(t, body, `xbar_engine_job_seconds_bucket{kind="synthesize-two-level",le="+Inf"}`); v != 1 {
		t.Errorf("job_seconds_bucket{+Inf} = %v, want 1", v)
	}
	// Both submissions and this earlier scrape-free traffic went through
	// instrumented routes.
	if v := metricValue(t, body, `xbar_http_requests_total{route="/v1/jobs",code="202"}`); v != 2 {
		t.Errorf(`http_requests_total{/v1/jobs,202} = %v, want 2`, v)
	}
	// The journal committed one record (the cache hit appended nothing).
	if v := metricValue(t, body, "xbar_journal_last_seq"); v != 1 {
		t.Errorf("journal_last_seq = %v, want 1", v)
	}
	if v := metricValue(t, body, `xbar_journal_appends_total{result="ok"}`); v != 1 {
		t.Errorf("journal_appends_total{ok} = %v, want 1", v)
	}
	checkStatsMatchExposition(t, e.Stats(), body)
}

// checkStatsMatchExposition asserts that every Stats count read from the
// metrics registry equals its series, or the sum of its series, in a
// scrape taken while the engine was idle.
func checkStatsMatchExposition(t *testing.T, s Stats, body string) {
	t.Helper()
	for _, c := range []struct {
		field  string
		got    int64
		family string
		match  string // label pair the summed series must carry; "" sums all
	}{
		{"Submitted", s.Submitted, "xbar_engine_submitted_jobs_total", ""},
		{"Completed", s.Completed, "xbar_engine_jobs_total", ""},
		{"Errors", s.Errors, "xbar_engine_jobs_total", `outcome="error"`},
		{"CacheHits", s.CacheHits, "xbar_engine_cache_hits_total", ""},
		{"Deduped", s.Deduped, "xbar_engine_dedup_total", ""},
		{"Rejected", s.Rejected, "xbar_engine_rejects_total", ""},
		{"QuotaRejected", s.QuotaRejected, "xbar_quota_rejects_total", ""},
		{"Replicated", s.Replicated, "xbar_replication_applied_total", ""},
	} {
		if want := seriesSum(t, body, c.family, c.match); float64(c.got) != want {
			t.Errorf("Stats.%s = %d, but %s{%s} sums to %v in /metrics", c.field, c.got, c.family, c.match, want)
		}
	}
}

// seriesSum totals the samples of one family whose label set contains
// match ("" matches every series).
func seriesSum(t *testing.T, body, family, match string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		labels, value, _ := strings.Cut(rest, " ")
		if !strings.Contains(labels, match) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series line %q has unparsable value", line)
		}
		sum += v
	}
	return sum
}

// TestMetricsOverloadRejects checks admission-control rejections reach both
// the reject counter family and the 429 status counter. A Monte Carlo job
// of a million samples (seconds of work) holds the lone worker and the
// single queue slot, so the POST is rejected on every run; cancelling its
// context then ends the job at the next sample. A longer job would cost
// memory: the batch loop allocates a 40-byte outcome per sample up front.
func TestMetricsOverloadRejects(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueuedJobs: 1})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := e.Submit(ctx, []JobSpec{{Kind: MonteCarloYield, Benchmark: "rd53", Samples: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJobsAs(t, srv.URL, "")
	cancel()
	for range b.Results {
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /v1/jobs with the queue full: HTTP %d, want 429", resp.StatusCode)
	}
	body := scrapeMetrics(t, srv.URL)
	if v := metricValue(t, body, `xbar_engine_rejects_total{reason="overloaded"}`); v < 1 {
		t.Errorf(`rejects_total{overloaded} = %v, want >= 1`, v)
	}
	if v := metricValue(t, body, `xbar_http_requests_total{route="/v1/jobs",code="429"}`); v < 1 {
		t.Errorf(`http_requests_total{/v1/jobs,429} = %v, want >= 1`, v)
	}
	checkStatsMatchExposition(t, e.Stats(), body)
}

// TestQuotaRejectMetrics is the regression test for the per-client quota
// counters: over-quota submissions must book into Stats.QuotaRejected and
// into xbar_quota_rejects_total under the right bucket-namespace label
// (hdr for X-Client-ID traffic, ip for anonymous), and must not count as
// engine admission rejects.
func TestQuotaRejectMetrics(t *testing.T) {
	e := New(Options{Workers: 1, ClientRPS: 0.01, ClientBurst: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	countRejects := func(clientID string, n int) int {
		t.Helper()
		rejects := 0
		for i := 0; i < n; i++ {
			if resp := postJobsAs(t, srv.URL, clientID); resp.StatusCode == http.StatusTooManyRequests {
				rejects++
			}
		}
		return rejects
	}
	hdrRejects := countRejects("client-a", 4) // burst 2 -> 2 rejects
	ipRejects := countRejects("", 3)          // anonymous bucket -> 1 reject
	if hdrRejects != 2 || ipRejects != 1 {
		t.Fatalf("rejects = %d hdr, %d ip; want 2 and 1", hdrRejects, ipRejects)
	}

	if got := e.Stats().QuotaRejected; got != 3 {
		t.Errorf("Stats.QuotaRejected = %d, want 3", got)
	}
	body := scrapeMetrics(t, srv.URL)
	if v := metricValue(t, body, `xbar_quota_rejects_total{key="hdr"}`); v != 2 {
		t.Errorf(`quota_rejects_total{hdr} = %v, want 2`, v)
	}
	if v := metricValue(t, body, `xbar_quota_rejects_total{key="ip"}`); v != 1 {
		t.Errorf(`quota_rejects_total{ip} = %v, want 1`, v)
	}
	// Quota rejections happen before admission: the engine-level reject
	// counter must not have moved.
	if m := regexp.MustCompile(`xbar_engine_rejects_total\{[^}]*\} [1-9]`).FindString(body); m != "" {
		t.Errorf("engine admission rejects booked for quota rejections: %s", m)
	}
	checkStatsMatchExposition(t, e.Stats(), body)
}

// TestMetricsUnknownKindsShareOneSeries: clients choose the job kind
// string, so kinds outside the known set must not mint metric series. A
// batch of distinct bogus kinds lands in one kind="unknown" series per
// kind-labelled family, and every job still fails with its own error.
func TestMetricsUnknownKindsShareOneSeries(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	const n = 50
	jobs := make([]string, n)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"kind":"bogus-%d"}`, i)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"jobs":[`+strings.Join(jobs, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		JobIDs []string `json:"job_ids"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || len(sub.JobIDs) != n {
		t.Fatalf("submit: HTTP %d, %d ids, err %v", resp.StatusCode, len(sub.JobIDs), err)
	}
	waitForStats(t, e, func(s Stats) bool { return s.Completed == n })
	for _, id := range sub.JobIDs {
		st, ok := e.Job(id)
		if !ok || st.Result == nil || !strings.Contains(st.Result.Err, "unknown job kind") {
			t.Fatalf("job %s: want its own unknown-kind error, got %+v", id, st)
		}
	}

	body := scrapeMetrics(t, srv.URL)
	if strings.Contains(body, "bogus-") {
		t.Errorf("exposition labels series with client-chosen kinds:\n%s", body)
	}
	for family, series := range map[string]string{
		"xbar_engine_queue_wait_seconds_count": `{kind="unknown"}`,
		"xbar_engine_job_seconds_count":        `{kind="unknown"}`,
		"xbar_engine_jobs_total":               `{kind="unknown",outcome="error"}`,
	} {
		if v := metricValue(t, body, family+series); v != n {
			t.Errorf("%s%s = %v, want %d", family, series, v, n)
		}
		if got := strings.Count(body, "\n"+family+`{kind="unknown"`); got != 1 {
			t.Errorf("%s has %d kind=\"unknown\" series, want 1", family, got)
		}
	}
	checkStatsMatchExposition(t, e.Stats(), body)
}

// waitForStats polls the engine's stats until cond holds.
func waitForStats(t *testing.T, e *Engine, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(e.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
