package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// MaxBatchJobs bounds one HTTP batch submission.
const MaxBatchJobs = 4096

// maxBodyBytes bounds the POST /v1/jobs request body so the job limit is
// enforceable before the whole payload is buffered.
const maxBodyBytes = 32 << 20

// SubmitRequest is the POST /v1/jobs payload. Exported so the gateway (and
// other Go clients) share one wire definition with the server.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse acknowledges a batch with the assigned job ids, in
// submission order, the batch id for the SSE streaming endpoint, and the
// trace id of the batch's span timeline (GET /v1/traces/{trace_id}).
type SubmitResponse struct {
	BatchID string   `json:"batch_id"`
	JobIDs  []string `json:"job_ids"`
	TraceID string   `json:"trace_id,omitempty"`
}

// HealthResponse is the GET /healthz (liveness) and /readyz (readiness)
// payload; on an unready 503 Status is "unready" and Error says why.
type HealthResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Stats  Stats  `json:"stats"`
}

// NewHTTPHandler exposes the engine as the xbarserver batch API:
//
//	POST /v1/jobs                 {"jobs":[{...JobSpec...}]} -> 202
//	                              {"batch_id":"b...","job_ids":[...]}
//	GET  /v1/jobs/{id}            -> {"id","status","result"?}
//	GET  /v1/batches/{id}/events  -> Server-Sent Events: one "result" event
//	                              per job as it finishes (replayed from the
//	                              start for late subscribers, each result
//	                              exactly once), then one "done" event
//	GET  /v1/journal/records      -> committed journal records past a
//	                              cursor (?after=N&limit=M&wait=25s), each
//	                              {"seq","key","value"} with the journaled
//	                              value bytes in base64: the
//	                              follower-replication feed
//	GET  /healthz                 -> liveness: {"status":"ok","stats":{...}}
//	GET  /readyz                  -> readiness: 200 while the member should
//	                              receive traffic, 503 while draining or
//	                              journal-degraded
//	GET  /v1/cluster/state        -> this member's role, epoch, leader, and
//	                              replication cursor (leader discovery)
//	GET  /v1/traces/{id}          -> one trace's span timeline (admission,
//	                              queue wait, execution, journal commit,
//	                              publish, SSE delivery), JSON
//	GET  /v1/traces?slowest=N     -> the N slowest kept timelines
//	GET  /metrics                 -> Prometheus text exposition of the
//	                              engine's registry (engine, journal, HTTP,
//	                              quota, and replication families)
//
// Submission is asynchronous: the response returns as soon as the batch is
// queued, and clients stream the batch id (or poll job ids — identical jobs
// are answered from the result cache). When the engine bounds admission,
// over-limit submissions are rejected with 429 and a Retry-After header;
// with Options.ClientRPS set, each X-Client-ID additionally has its own
// token bucket, and an over-quota client gets 429 + Retry-After before its
// submission consumes any queue slots. Requests without the header are
// bucketed by remote IP so unrelated anonymous clients don't share (and
// exhaust) a single quota; the quota is a fairness mechanism for
// well-behaved clients, not an authentication boundary — a client that
// rotates header values mints fresh buckets.
func NewHTTPHandler(e *Engine) http.Handler {
	limiter := newClientLimiter(e.opt.ClientRPS, e.opt.ClientBurst)
	mux := http.NewServeMux()
	// handle registers one route with per-route latency and status-count
	// instrumentation; the route label is the pattern, so cardinality is
	// fixed regardless of path values.
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, metrics.InstrumentRoute(e.met.httpSeconds, e.met.httpRequests, route, h))
	}
	handle("POST /v1/jobs", "/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if limiter != nil {
			if ok, retry := limiter.allow(clientQuotaID(r)); !ok {
				e.quotaRejected(r)
				w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
				httpError(w, http.StatusTooManyRequests, "client over submission quota")
				return
			}
		}
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		if len(req.Jobs) == 0 {
			httpError(w, http.StatusBadRequest, "empty batch")
			return
		}
		if len(req.Jobs) > MaxBatchJobs {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d jobs exceeds limit %d", len(req.Jobs), MaxBatchJobs))
			return
		}
		// The trace rides in on the W3C traceparent header when the caller
		// (gateway, loadgen) propagates one; otherwise this admission is
		// the trace root. The admission span is recorded when the handler
		// returns; the batch span parents under it.
		admitStart := time.Now()
		caller := trace.FromRequestHeader(r.Header.Get(trace.Header))
		admitSC := caller.Child()
		if !caller.Valid() {
			admitSC = trace.SpanContext{Trace: trace.NewTraceID(), Span: trace.NewSpanID()}
		}
		// The batch must outlive this request, so it is detached from the
		// request context; admission control (Options.MaxQueuedJobs and
		// MaxBatches) bounds how much detached work can pile up.
		b, err := e.Submit(trace.ContextWith(context.Background(), admitSC), req.Jobs)
		if err != nil {
			switch {
			case errors.Is(err, ErrBatchTooLarge):
				// Permanently unservable at this queue limit: no
				// Retry-After, the client must split the batch.
				httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			case errors.Is(err, ErrOverloaded):
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, err.Error())
			default:
				httpError(w, http.StatusServiceUnavailable, err.Error())
			}
			return
		}
		e.traces.Record(&trace.Span{
			Trace:  admitSC.Trace,
			ID:     admitSC.Span,
			Parent: caller.Span,
			Name:   spanAdmit,
			Start:  admitStart.UnixNano(),
			End:    time.Now().UnixNano(),
			Detail: b.ID,
		})
		writeJSON(w, http.StatusAccepted, SubmitResponse{
			BatchID: b.ID, JobIDs: b.IDs, TraceID: admitSC.Trace.String(),
		})
	})
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := e.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job id")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	handle("GET /v1/batches/{id}/events", "/v1/batches/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveBatchEvents(e, w, r)
	})
	handle("GET /v1/journal/records", "/v1/journal/records", func(w http.ResponseWriter, r *http.Request) {
		serveJournalRecords(e, w, r)
	})
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving. Deliberately undemanding —
		// a draining or journal-degraded member is still alive (restarting it
		// would make things worse); readiness is /readyz's job.
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Stats: e.Stats()})
	})
	handle("GET /readyz", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: should this member receive traffic right now? The
		// gateway's health checker and the CI smoke scripts probe this, so a
		// draining member leaves the ring before its listener closes.
		if err := e.Ready(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "unready", Error: err.Error(), Stats: e.Stats()})
			return
		}
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Stats: e.Stats()})
	})
	handle("GET /v1/cluster/state", "/v1/cluster/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.ClusterState())
	})
	handle("GET /v1/traces/{id}", "/v1/traces/{id}", e.traces.ServeTimeline)
	handle("GET /v1/traces", "/v1/traces", e.traces.ServeList)
	// The scrape itself is deliberately not instrumented: a request-latency
	// series for /metrics would grow the exposition it is measuring.
	mux.Handle("GET /metrics", e.met.reg.Handler())
	return mux
}

// quotaRejected books one submission bounced by the per-client quota,
// labeled by bucket namespace (authenticated header vs anonymous IP) so a
// noisy-anonymous-traffic problem is distinguishable from a misbehaving
// identified client.
func (e *Engine) quotaRejected(r *http.Request) {
	kind := "ip"
	if r.Header.Get("X-Client-ID") != "" {
		kind = "hdr"
	}
	e.met.quotaRejects.With(kind).Inc()
}

// serveBatchEvents streams a batch's job results as Server-Sent Events.
// Results already finished when the client connects are replayed first, so
// every subscriber sees each result exactly once regardless of when it
// joins; a terminal "done" event follows the last result.
func serveBatchEvents(e *Engine, w http.ResponseWriter, r *http.Request) {
	b, ok := e.batch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown batch id")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	e.met.sseSubs.Inc()
	defer e.met.sseSubs.Dec()
	// The delivery span covers the subscription's whole lifetime. It is
	// recorded on return — usually after the batch's trace has finished, so
	// it surfaces in the timeline through the live-ring union in Get.
	sseStart := time.Now()
	delivered := false
	defer func() {
		detail := "disconnected"
		if delivered {
			detail = "delivered"
		}
		e.traces.Record(&trace.Span{
			Trace:  b.sc.Trace,
			ID:     trace.NewSpanID(),
			Parent: b.sc.Span,
			Name:   spanSSE,
			Start:  sseStart.UnixNano(),
			End:    time.Now().UnixNano(),
			Detail: detail,
		})
	}()
	stop := e.streamStopChan()
	// A reconnecting SSE client sends the last event id it processed;
	// resume past it so reconnects keep the exactly-once delivery.
	sent := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		sent = b.resumeAfter(last)
	}
	for {
		rs, changed, complete := b.next(sent)
		for _, res := range rs {
			data, err := json.Marshal(res)
			if err != nil {
				log.Printf("engine: encoding SSE result %s: %v", res.ID, err)
				return
			}
			if _, err := fmt.Fprintf(w, "id: %s\nevent: result\ndata: %s\n\n", res.ID, data); err != nil {
				return // client went away
			}
			sent++
		}
		if len(rs) > 0 {
			fl.Flush()
		}
		if complete && sent == len(b.jobIDs) {
			fmt.Fprintf(w, "event: done\ndata: {\"batch_id\":%q,\"jobs\":%d}\n\n", b.id, sent)
			fl.Flush()
			delivered = true
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-stop:
			return // engine closing or server shutting down
		}
	}
}

// tailWaitMax caps how long one feed request may long-poll for new records
// before answering empty.
const tailWaitMax = 30 * time.Second

// tailLimitMax caps the records of one feed response.
const tailLimitMax = 4096

// serveJournalRecords answers the follower-replication feed: committed
// journal records with sequence numbers past ?after, oldest first, up to
// ?limit, each shipped verbatim. With ?wait, an empty read long-polls until
// the next group commit (or the wait expires), so a caught-up follower
// converges one commit behind the leader instead of one poll interval.
func serveJournalRecords(e *Engine, w http.ResponseWriter, r *http.Request) {
	if e.journal == nil {
		httpError(w, http.StatusNotFound, "journal not enabled (start the server with -journal-dir)")
		return
	}
	q := r.URL.Query()
	var after uint64
	if s := q.Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad after cursor: "+err.Error())
			return
		}
		after = v
	}
	limit := 512
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = min(v, tailLimitMax)
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		v, err := time.ParseDuration(s)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad wait duration")
			return
		}
		wait = min(v, tailWaitMax)
	}
	// The commit signal is armed before the first read: a commit landing
	// between the read and the select closes this channel, so the long
	// poll can never sleep through it.
	notify := e.journalNotify()
	resp, err := e.journalTail(after, limit)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if len(resp.Records) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-notify:
			if resp, err = e.journalTail(after, limit); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		case <-timer.C:
		case <-r.Context().Done():
			return
		case <-e.streamStopChan():
			// Server shutting down: answer empty now so graceful shutdown
			// is not held open by long-polling followers.
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// clientQuotaID picks the token-bucket key for one submission: the
// X-Client-ID header when present, else the remote IP (port stripped, so
// one host's successive connections share a bucket). The two prefixes
// keep the namespaces disjoint: no header value — not even one spelling
// "ip:10.0.0.1" — can land in another host's anonymous bucket.
func clientQuotaID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return "hdr:" + id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "ip:" + host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late to change the status; log so failed writes are visible.
		log.Printf("engine: writing %d response: %v", code, err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
