package engine

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// engineMetrics holds every instrument the engine's hot paths record into.
// One instance (and one metrics.Registry) lives per Engine; cmd/xbarserver
// exposes the registry at GET /metrics. Per-kind histogram children are
// resolved once at construction so the worker loop does an atomic add per
// observation, not a map lookup under a lock.
type engineMetrics struct {
	reg *metrics.Registry

	queueWait *metrics.HistogramVec // kind
	jobSecs   *metrics.HistogramVec // kind
	jobs      *metrics.CounterVec   // kind, outcome
	submitted *metrics.Counter

	queueWaitByKind map[Kind]*metrics.Histogram
	jobSecsByKind   map[Kind]*metrics.Histogram

	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	dedup       *metrics.Counter
	rejects     *metrics.CounterVec // reason

	activeWorkers *metrics.Gauge // registered by registerEngineGauges

	httpSeconds  *metrics.HistogramVec // route
	httpRequests *metrics.CounterVec   // route, code
	sseSubs      *metrics.Gauge
	quotaRejects *metrics.CounterVec // key ("hdr" or "ip")

	replApplied  *metrics.Counter
	replSkipped  *metrics.Counter
	replPullErrs *metrics.Counter
	replCursor   *metrics.Gauge
	replLeader   *metrics.Gauge
	replLag      *metrics.Gauge
	// replBackoff is the follower's current pull backoff in nanoseconds.
	// Backoffs are sub-second at short leases, so the gauge that exports it
	// reads it in float seconds.
	replBackoff atomic.Int64

	clusterEpoch     *metrics.Gauge
	clusterIsLeader  *metrics.Gauge
	clusterFailovers *metrics.Counter
	clusterDemotions *metrics.Counter
}

// knownKinds is the fixed set of job kinds, used to pre-resolve per-kind
// histogram children off the hot path.
var knownKinds = []Kind{SynthTwoLevel, SynthMultiLevel, MapHBA, MapEA, MonteCarloYield}

// kindUnknown is the kind label of every job whose kind is not in
// knownKinds. Clients choose the kind string, so labelling by it verbatim
// would let them mint a new series per request; they share this one
// instead, created by With on first use.
const kindUnknown = "unknown"

// kindLabel is the metric label for a job kind.
func kindLabel(k Kind) string {
	if slices.Contains(knownKinds, k) {
		return string(k)
	}
	return kindUnknown
}

func newEngineMetrics() *engineMetrics {
	reg := metrics.NewRegistry()
	m := &engineMetrics{
		reg: reg,
		queueWait: reg.NewHistogramVec("xbar_engine_queue_wait_seconds",
			"Time from batch admission to a worker picking the job up.",
			nil, "kind"),
		jobSecs: reg.NewHistogramVec("xbar_engine_job_seconds",
			"Kernel execution time of jobs actually run (cache hits and dedup waits excluded).",
			nil, "kind"),
		jobs: reg.NewCounterVec("xbar_engine_jobs_total",
			"Finished jobs by kind and outcome.", "kind", "outcome"),
		submitted: reg.NewCounter("xbar_engine_submitted_jobs_total",
			"Jobs admitted by Submit."),
		cacheHits: reg.NewCounter("xbar_engine_cache_hits_total",
			"Jobs answered from the result cache (dedup waits on an identical in-flight job included)."),
		cacheMisses: reg.NewCounter("xbar_engine_cache_misses_total",
			"Jobs that ran a kernel because no cached result existed."),
		dedup: reg.NewCounter("xbar_engine_dedup_total",
			"Jobs coalesced onto an identical in-flight execution instead of running twice."),
		rejects: reg.NewCounterVec("xbar_engine_rejects_total",
			"Batch submissions refused by admission control, by reason.", "reason"),
		httpSeconds: reg.NewHistogramVec("xbar_http_request_seconds",
			"HTTP request latency by route (SSE streams observe their whole lifetime).",
			nil, "route"),
		httpRequests: reg.NewCounterVec("xbar_http_requests_total",
			"HTTP responses by route and status code.", "route", "code"),
		sseSubs: reg.NewGauge("xbar_http_sse_subscribers",
			"Currently connected Server-Sent-Events subscribers."),
		quotaRejects: reg.NewCounterVec("xbar_quota_rejects_total",
			"Submissions refused by the per-client quota, by bucket key kind (hdr = X-Client-ID, ip = remote address).",
			"key"),
		replApplied: reg.NewCounter("xbar_replication_applied_total",
			"Records replicated from the followed peer and applied locally."),
		replSkipped: reg.NewCounter("xbar_replication_skipped_total",
			"Replicated job records skipped because the local journal already held their spec hash."),
		replPullErrs: reg.NewCounter("xbar_replication_pull_errors_total",
			"Failed tail pulls against the followed peer."),
		replCursor: reg.NewGauge("xbar_replication_cursor",
			"The follower's replication cursor (highest peer sequence number applied or skipped)."),
		replLeader: reg.NewGauge("xbar_replication_leader_seq",
			"The followed peer's newest committed journal sequence number, as of the last pull."),
		replLag: reg.NewGauge("xbar_replication_lag",
			"Records the follower still trails the leader by (leader_seq - cursor)."),
		clusterEpoch: reg.NewGauge("xbar_cluster_epoch",
			"Leadership epoch this member has observed (bumped on every promotion)."),
		clusterIsLeader: reg.NewGauge("xbar_cluster_is_leader",
			"1 while this member holds the leader lease, else 0."),
		clusterFailovers: reg.NewCounter("xbar_cluster_failovers_total",
			"Times this member promoted itself to leader after a lease expiry."),
		clusterDemotions: reg.NewCounter("xbar_cluster_demotions_total",
			"Times this member yielded leadership after observing a higher claim."),
	}
	reg.NewGaugeFunc("xbar_replication_pull_backoff_seconds",
		"Current retry backoff of the follower's tail pull (0 while the peer is healthy).",
		func() float64 { return time.Duration(m.replBackoff.Load()).Seconds() })
	m.queueWaitByKind = make(map[Kind]*metrics.Histogram, len(knownKinds))
	m.jobSecsByKind = make(map[Kind]*metrics.Histogram, len(knownKinds))
	for _, k := range knownKinds {
		m.queueWaitByKind[k] = m.queueWait.With(string(k))
		m.jobSecsByKind[k] = m.jobSecs.With(string(k))
	}
	return m
}

// registerEngineGauges installs the gauges of live engine state, most of
// them read at scrape time. Split from newEngineMetrics because the
// closures need the Engine, which needs the metrics first.
func (e *Engine) registerEngineGauges() {
	reg := e.met.reg
	reg.NewGaugeFunc("xbar_engine_workers",
		"Size of the worker pool.", func() float64 { return float64(e.opt.Workers) })
	e.met.activeWorkers = reg.NewGauge("xbar_engine_active_workers",
		"Workers currently executing a job.")
	reg.NewGaugeFunc("xbar_engine_queue_depth",
		"Jobs admitted but not yet finished.", func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.queuedJobs)
		})
	reg.NewGaugeFunc("xbar_engine_open_batches",
		"Batches submitted but not fully finished.", func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.openBatches)
		})
	reg.NewGaugeFunc("xbar_engine_cache_entries",
		"Entries in the result cache.", func() float64 {
			if e.cache == nil {
				return 0
			}
			return float64(e.cache.Len())
		})
}

// Metrics returns the engine's metrics registry; cmd/xbarserver serves it
// at GET /metrics, and library callers can render or inspect it directly.
func (e *Engine) Metrics() *metrics.Registry { return e.met.reg }

func (m *engineMetrics) observeQueueWait(k Kind, d time.Duration, traceID string) {
	h, ok := m.queueWaitByKind[k]
	if !ok {
		h = m.queueWait.With(kindUnknown)
	}
	h.ObserveWithExemplar(d.Seconds(), traceID)
}

func (m *engineMetrics) observeJob(k Kind, d time.Duration, traceID string) {
	h, ok := m.jobSecsByKind[k]
	if !ok {
		h = m.jobSecs.With(kindUnknown)
	}
	h.ObserveWithExemplar(d.Seconds(), traceID)
}

func (m *engineMetrics) countJob(k Kind, errStr string) {
	outcome := "ok"
	if errStr != "" {
		outcome = "error"
	}
	m.jobs.With(kindLabel(k), outcome).Inc()
}
