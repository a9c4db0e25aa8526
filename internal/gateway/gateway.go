// Package gateway implements xbargateway: a stateless HTTP front for a
// fleet of xbarserver members. It consistent-hashes the canonical
// spec-hash space across the members (cache locality: identical jobs land
// on the same member no matter which client sent them), proxies the batch
// API through bounded retries with exponential backoff and hedging,
// actively health-checks the fleet, and degrades gracefully — a shard with
// no healthy member costs 503 + Retry-After for that shard's jobs, not the
// whole batch.
//
// The gateway keeps no per-job state: all routing information is encoded
// in the identifiers it hands out. A gateway job id is "tok.jobid" (tok
// names the member that owns the job), a batch id is "tok~bid.tok~bid"
// (one part per member sub-batch), and an SSE cursor is "tok~last.tok~last"
// — so any gateway replica (or a restarted one) can resume any request.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Defaults for Options zero values.
const (
	DefaultAttemptTimeout = 5 * time.Second
	DefaultRetryBudget    = 20 * time.Second
	DefaultHedgeDelay     = 400 * time.Millisecond
)

// retryAfterSeconds is the Retry-After hint on 503s: roughly one health
// probe round, after which an ejected member may be back.
const retryAfterSeconds = 1

// Options configures a Gateway.
type Options struct {
	// Members are the fleet's base URLs. Required, at least one.
	Members []string
	// VirtualNodes per member on the hash ring; zero means
	// cluster.DefaultVirtualNodes.
	VirtualNodes int
	// AttemptTimeout bounds one proxied attempt; zero means
	// DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// RetryBudget bounds one client request across all retries and
	// backoffs: when it runs out the client gets the last error rather
	// than a hang. Zero means DefaultRetryBudget.
	RetryBudget time.Duration
	// HedgeDelay is how long the gateway waits on a submission attempt
	// before racing a hedge against the next ring member (first answer
	// wins; the spec-hash idempotency on the members makes the duplicate
	// harmless). Zero means DefaultHedgeDelay; negative disables hedging.
	HedgeDelay time.Duration
	// Backoff paces retries; the zero value means cluster.DefaultBackoff.
	Backoff cluster.Backoff
	// Health tunes the member health checker. Health.Path defaults to
	// /readyz: a draining member fails readiness and leaves the ring
	// before its listener closes.
	Health cluster.HealthOptions
	// TraceSampleRate is the fraction of unremarkable submissions whose
	// trace is kept (errored, slow-tail, and explicitly sampled traces
	// are always kept). Zero means the trace package default; negative
	// disables rate-based keeps.
	TraceSampleRate float64
}

// Gateway is the stateless cluster front. Create with New, serve
// Handler(), Close when done.
type Gateway struct {
	opt     Options
	members []string          // sorted
	byTok   map[string]string // member token -> URL
	tokOf   map[string]string // URL -> token
	ring    *cluster.Ring
	health  *cluster.HealthChecker
	client  *http.Client
	met     *gatewayMetrics
	traces  *trace.Store
}

// New builds a gateway over opt.Members and starts its health checker.
func New(opt Options) (*Gateway, error) {
	if len(opt.Members) == 0 {
		return nil, fmt.Errorf("gateway: no members configured")
	}
	if opt.AttemptTimeout <= 0 {
		opt.AttemptTimeout = DefaultAttemptTimeout
	}
	if opt.RetryBudget <= 0 {
		opt.RetryBudget = DefaultRetryBudget
	}
	if opt.HedgeDelay == 0 {
		opt.HedgeDelay = DefaultHedgeDelay
	}
	g := &Gateway{
		opt:     opt,
		members: append([]string(nil), opt.Members...),
		byTok:   make(map[string]string, len(opt.Members)),
		tokOf:   make(map[string]string, len(opt.Members)),
		ring:    cluster.NewRing(opt.Members, opt.VirtualNodes),
		client:  &http.Client{}, // per-request contexts carry the timeouts
		met:     newGatewayMetrics(),
		traces:  trace.NewStore(trace.Options{SampleRate: opt.TraceSampleRate}),
	}
	sort.Strings(g.members)
	for _, m := range g.members {
		tok := memberToken(m)
		if prev, dup := g.byTok[tok]; dup {
			return nil, fmt.Errorf("gateway: member token collision: %s and %s both hash to %s", prev, m, tok)
		}
		g.byTok[tok] = m
		g.tokOf[m] = tok
	}
	health := opt.Health
	health.OnChange = func(member string, healthy bool) {
		to := "ejected"
		if healthy {
			to = "admitted"
		}
		slog.Info("gateway member health transition",
			"component", "gateway", "member", member, "to", to)
		g.met.transitions.With(to).Inc()
	}
	g.health = cluster.NewHealthChecker(g.members, health)
	g.met.registerGauges(g)
	g.health.Start()
	return g, nil
}

// Close stops the health checker.
func (g *Gateway) Close() { g.health.Stop() }

// memberToken is the stable short name a member URL gets inside gateway
// identifiers: 8 hex chars of fnv32a. Tokens must not contain '.' or '~'
// (the identifier separators) — hex can't.
func memberToken(url string) string {
	h := fnv.New32a()
	h.Write([]byte(url))
	return fmt.Sprintf("%08x", h.Sum32())
}

// prefsFor returns the member preference order for one job spec.
func (g *Gateway) prefsFor(spec engine.JobSpec) []string {
	return g.ring.Prefs([]byte(spec.CanonicalHash()))
}

// Handler returns the gateway's HTTP API — the same surface a single
// xbarserver exposes (submit, job status, batch SSE), plus the fleet
// aggregates.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, metrics.InstrumentRoute(g.met.latency, g.met.requests, route, h))
	}
	handle("POST /v1/jobs", "/v1/jobs", g.serveSubmit)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", g.serveJob)
	handle("GET /v1/batches/{id}/events", "/v1/batches/{id}/events", g.serveBatchEvents)
	handle("GET /v1/cluster/state", "/v1/cluster/state", g.serveClusterState)
	handle("GET /v1/traces/{id}", "/v1/traces/{id}", g.serveTrace)
	handle("GET /v1/traces", "/v1/traces", g.traces.ServeList)
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET /readyz", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		// The gateway is ready while it can route to anyone.
		if g.health.HealthyCount() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "unready", "error": "no healthy members"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", g.met.reg.Handler())
	return mux
}

// SubmitResponse is the gateway's POST /v1/jobs payload: the fleet-wide
// batch id and per-job gateway ids, in submission order. Jobs whose shard
// had no healthy member (or exhausted the retry budget) have an empty id
// and an entry in Errors — the partial-batch degradation: accepted work is
// accepted even when part of the ring is dark.
type SubmitResponse struct {
	BatchID string        `json:"batch_id"`
	JobIDs  []string      `json:"job_ids"`
	TraceID string        `json:"trace_id,omitempty"`
	Errors  []SubmitError `json:"errors,omitempty"`
}

// SubmitError reports one group of jobs the gateway could not place.
type SubmitError struct {
	// Jobs are the submission indices that failed.
	Jobs []int `json:"jobs"`
	// Error says why (no healthy member, retry budget exhausted, ...).
	Error string `json:"error"`
}

// shardAck records one successfully placed sub-batch.
type shardAck struct {
	member  string
	batchID string   // member-local
	jobIDs  []string // member-local, parallel to the group's indices
}

func (g *Gateway) serveSubmit(w http.ResponseWriter, r *http.Request) {
	// Every submission gets a trace: the whole request is the root span,
	// each member attempt a child whose span id rides upstream as the
	// traceparent (so member-local timelines stitch under it), and the
	// store's sampling policy decides post-hoc what to keep.
	start := time.Now()
	caller := trace.FromRequestHeader(r.Header.Get(trace.Header))
	sc := caller.Child()
	if !caller.Valid() {
		sc = trace.SpanContext{Trace: trace.NewTraceID(), Span: trace.NewSpanID()}
	}
	finishTrace := func(errStr, detail string, failed bool) {
		end := time.Now()
		g.traces.Record(&trace.Span{
			Trace: sc.Trace, ID: sc.Span, Parent: caller.Span, Name: spanGwSubmit,
			Start: start.UnixNano(), End: end.UnixNano(), Err: errStr, Detail: detail,
		})
		g.traces.FinishTrace(sc, start, end, failed)
	}
	var req engine.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&req); err != nil {
		finishTrace("bad request body", "", true)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Jobs) == 0 {
		finishTrace("empty batch", "", true)
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Jobs) > engine.MaxBatchJobs {
		finishTrace("batch exceeds job limit", "", true)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d jobs exceeds limit %d", len(req.Jobs), engine.MaxBatchJobs))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.opt.RetryBudget)
	defer cancel()

	jobIDs := make([]string, len(req.Jobs))
	var batchParts []string
	var errsByMsg = map[string][]int{}
	// Jobs still unplaced, by submission index. Each round groups them by
	// their best healthy member not yet excluded this request, submits the
	// groups in parallel, and excludes members that failed — so the next
	// round re-shards the survivors onto each job's next preference
	// (deterministic failover down the ring).
	remaining := make([]int, len(req.Jobs))
	for i := range remaining {
		remaining[i] = i
	}
	excluded := map[string]bool{}
	for attempt := 0; len(remaining) > 0; attempt++ {
		if attempt > 0 {
			d := g.opt.Backoff.Delay(attempt-1, nil)
			g.met.retries.Add(int64(len(remaining)))
			waitStart := time.Now()
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			g.traces.Record(&trace.Span{
				Trace: sc.Trace, ID: trace.NewSpanID(), Parent: sc.Span, Name: spanGwRetry,
				Start: waitStart.UnixNano(), End: time.Now().UnixNano(),
				Detail: fmt.Sprintf("round %d, %d jobs left", attempt, len(remaining)),
			})
		}
		if ctx.Err() != nil {
			for _, idx := range remaining {
				errsByMsg["retry budget exhausted"] = append(errsByMsg["retry budget exhausted"], idx)
			}
			break
		}
		groups := map[string][]int{}
		var unroutable []int
		for _, idx := range remaining {
			target := ""
			for _, m := range g.prefsFor(req.Jobs[idx]) {
				if !excluded[m] && g.health.Healthy(m) {
					target = m
					break
				}
			}
			if target == "" {
				unroutable = append(unroutable, idx)
				continue
			}
			groups[target] = append(groups[target], idx)
		}
		if len(groups) == 0 {
			g.met.unrouted.Add(int64(len(unroutable)))
			for _, idx := range unroutable {
				errsByMsg["no healthy member for shard"] = append(errsByMsg["no healthy member for shard"], idx)
			}
			break
		}
		type outcome struct {
			member string
			ack    *shardAck
			err    error
			jobs   []int
		}
		results := make([]outcome, 0, len(groups))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for member, idxs := range groups {
			wg.Add(1)
			go func(member string, idxs []int) {
				defer wg.Done()
				specs := make([]engine.JobSpec, len(idxs))
				for i, idx := range idxs {
					specs[i] = req.Jobs[idx]
				}
				ack, err := g.submitShard(ctx, sc, member, idxs, specs)
				mu.Lock()
				results = append(results, outcome{member: member, ack: ack, err: err, jobs: idxs})
				mu.Unlock()
			}(member, idxs)
		}
		wg.Wait()
		next := unroutable[:0:0]
		next = append(next, unroutable...)
		for _, o := range results {
			if o.err != nil {
				slog.Warn("gateway shard submit failed; excluding member this request",
					"component", "gateway", "member", o.member, "jobs", len(o.jobs),
					"trace_id", sc.Trace.String(), "err", o.err)
				excluded[o.member] = true
				next = append(next, o.jobs...)
				continue
			}
			tok := g.tokOf[o.ack.member]
			batchParts = append(batchParts, tok+"~"+o.ack.batchID)
			for i, idx := range o.jobs {
				jobIDs[idx] = tok + "." + o.ack.jobIDs[i]
			}
		}
		sort.Ints(next)
		remaining = next
		if len(unroutable) > 0 && attempt > 0 {
			// Second time around with nowhere to go: stop retrying them.
			g.met.unrouted.Add(int64(len(unroutable)))
			kept := remaining[:0]
			for _, idx := range remaining {
				routed := false
				for _, m := range g.prefsFor(req.Jobs[idx]) {
					if !excluded[m] && g.health.Healthy(m) {
						routed = true
						break
					}
				}
				if routed {
					kept = append(kept, idx)
				} else {
					errsByMsg["no healthy member for shard"] = append(errsByMsg["no healthy member for shard"], idx)
				}
			}
			remaining = kept
		}
	}

	resp := SubmitResponse{JobIDs: jobIDs, TraceID: sc.Trace.String()}
	for msg, idxs := range errsByMsg {
		sort.Ints(idxs)
		resp.Errors = append(resp.Errors, SubmitError{Jobs: idxs, Error: msg})
	}
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Jobs[0] < resp.Errors[j].Jobs[0] })
	if len(batchParts) == 0 {
		// Nothing was placed: total degradation, tell the client when to
		// come back rather than hanging or half-answering.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		msg := "no healthy members"
		if len(resp.Errors) > 0 {
			msg = resp.Errors[0].Error
		}
		finishTrace(msg, "", true)
		httpError(w, http.StatusServiceUnavailable, msg)
		return
	}
	sort.Strings(batchParts)
	resp.BatchID = strings.Join(batchParts, ".")
	finishTrace("", resp.BatchID, len(resp.Errors) > 0)
	writeJSON(w, http.StatusAccepted, resp)
}

// submitShard posts one member's sub-batch, hedging against the next ring
// member when the primary is slow: both requests race, the first
// acknowledgement wins, and the canonical spec-hash identity on the
// members makes the losing duplicate converge to the same cached results.
func (g *Gateway) submitShard(ctx context.Context, sc trace.SpanContext, member string, idxs []int, specs []engine.JobSpec) (*shardAck, error) {
	body, err := json.Marshal(engine.SubmitRequest{Jobs: specs})
	if err != nil {
		return nil, err
	}
	type res struct {
		ack *shardAck
		err error
	}
	// Each attempt is its own span, and its span id is exactly what rides
	// upstream in the traceparent header — the member's admission span
	// reports that id as its parent, so when the gateway later stitches
	// the member's timeline in, the remote spans hang off this attempt.
	attempt := func(ctx context.Context, member string, name trace.Name) (*shardAck, error) {
		actx, cancel := context.WithTimeout(ctx, g.opt.AttemptTimeout)
		defer cancel()
		attemptSC := sc.Child()
		attemptStart := time.Now()
		var sub engine.SubmitResponse
		err := g.doJSON(actx, http.MethodPost, member+"/v1/jobs", body, attemptSC, &sub)
		if err == nil && len(sub.JobIDs) != len(specs) {
			err = fmt.Errorf("member %s acked %d jobs, want %d", member, len(sub.JobIDs), len(specs))
		}
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		g.traces.Record(&trace.Span{
			Trace: sc.Trace, ID: attemptSC.Span, Parent: sc.Span, Name: name,
			Start: attemptStart.UnixNano(), End: time.Now().UnixNano(),
			Member: g.tokOf[member], Err: errStr, Detail: member,
		})
		if err != nil {
			return nil, err
		}
		return &shardAck{member: member, batchID: sub.BatchID, jobIDs: sub.JobIDs}, nil
	}
	hedge := ""
	if g.opt.HedgeDelay > 0 {
		// The hedge target is the next healthy preference of the group's
		// first job that isn't the primary.
		for _, m := range g.prefsFor(specs[0]) {
			if m != member && g.health.Healthy(m) {
				hedge = m
				break
			}
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan res, 2)
	go func() {
		ack, err := attempt(cctx, member, spanGwMember)
		ch <- res{ack, err}
	}()
	launched := 1
	var timer <-chan time.Time
	if hedge != "" {
		t := time.NewTimer(g.opt.HedgeDelay)
		defer t.Stop()
		timer = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.ack, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			launched--
			if launched == 0 {
				return nil, firstErr
			}
		case <-timer:
			timer = nil
			g.met.hedges.Inc()
			launched++
			go func() {
				ack, err := attempt(cctx, hedge, spanGwHedge)
				ch <- res{ack, err}
			}()
		case <-cctx.Done():
			return nil, cctx.Err()
		}
	}
}

func (g *Gateway) serveJob(w http.ResponseWriter, r *http.Request) {
	tok, memberID, ok := strings.Cut(r.PathValue("id"), ".")
	member := g.byTok[tok]
	if !ok || member == "" {
		httpError(w, http.StatusNotFound, "unknown job id (not issued by this gateway's fleet)")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.opt.RetryBudget)
	defer cancel()
	var st engine.JobStatus
	err := g.withRetry(ctx, func(actx context.Context) error {
		return g.doJSON(actx, http.MethodGet, member+"/v1/jobs/"+memberID, nil, trace.SpanContext{}, &st)
	})
	if err != nil {
		if se := (*statusError)(nil); asStatusError(err, &se) && se.code == http.StatusNotFound {
			httpError(w, http.StatusNotFound, "unknown job id")
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("member %s unavailable: %v", member, err))
		return
	}
	// Job ids in the payload are member-local; hand back gateway ids.
	st.ID = tok + "." + st.ID
	if st.Result != nil {
		st.Result.ID = tok + "." + st.Result.ID
	}
	writeJSON(w, http.StatusOK, st)
}

// memberClusterState is one member's row in the gateway's fleet summary.
type memberClusterState struct {
	Member  string               `json:"member"`
	Healthy bool                 `json:"healthy"`
	State   *engine.ClusterState `json:"state,omitempty"`
	Error   string               `json:"error,omitempty"`
}

// fleetState is the gateway's GET /v1/cluster/state payload: every
// member's own view plus the gateway's conclusion about who leads (the
// highest-epoch leader claim wins — exactly the fencing order members
// use, so the gateway and the fleet converge on the same answer).
type fleetState struct {
	Leader  string               `json:"leader,omitempty"`
	Epoch   uint64               `json:"epoch,omitempty"`
	Healthy int                  `json:"healthy"`
	Members []memberClusterState `json:"members"`
}

func (g *Gateway) serveClusterState(w http.ResponseWriter, r *http.Request) {
	out := fleetState{Members: make([]memberClusterState, len(g.members))}
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			row := memberClusterState{Member: m, Healthy: g.health.Healthy(m)}
			ctx, cancel := context.WithTimeout(r.Context(), g.opt.AttemptTimeout)
			defer cancel()
			var st engine.ClusterState
			if err := g.doJSON(ctx, http.MethodGet, m+"/v1/cluster/state", nil, trace.SpanContext{}, &st); err != nil {
				row.Error = err.Error()
			} else {
				row.State = &st
			}
			out.Members[i] = row
		}(i, m)
	}
	wg.Wait()
	for _, row := range out.Members {
		if row.Healthy {
			out.Healthy++
		}
		st := row.State
		if st == nil || st.Role != engine.RoleLeader {
			continue
		}
		if st.Epoch > out.Epoch || (st.Epoch == out.Epoch && st.Self > out.Leader) {
			out.Leader, out.Epoch = st.Self, st.Epoch
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// withRetry runs fn under the gateway's backoff policy until it succeeds,
// the context (the retry budget) expires, or a terminal client error (4xx)
// comes back.
func (g *Gateway) withRetry(ctx context.Context, fn func(context.Context) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			g.met.retries.Inc()
			select {
			case <-time.After(g.opt.Backoff.Delay(attempt-1, nil)):
			case <-ctx.Done():
				return lastErr
			}
		}
		actx, cancel := context.WithTimeout(ctx, g.opt.AttemptTimeout)
		err := fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		if se := (*statusError)(nil); asStatusError(err, &se) && se.code >= 400 && se.code < 500 {
			return err // the member understood and said no; retrying won't change its mind
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
}

// statusError is a non-2xx member response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func asStatusError(err error, out **statusError) bool {
	se, ok := err.(*statusError)
	if ok {
		*out = se
	}
	return ok
}

// doJSON performs one JSON request against a member. A valid sc is
// propagated upstream as the traceparent header so the member's spans join
// the gateway's trace; the zero SpanContext sends nothing.
func (g *Gateway) doJSON(ctx context.Context, method, url string, body []byte, sc trace.SpanContext, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc.Valid() {
		req.Header.Set(trace.Header, sc.Traceparent())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &statusError{code: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("gateway response write failed", "component", "gateway", "code", code, "err", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
