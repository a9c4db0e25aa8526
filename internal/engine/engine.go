// Package engine is the parallel crossbar compilation engine: a job-oriented
// layer over the synthesis, defect-mapping, and Monte Carlo kernels that runs
// batches on a bounded worker pool, enforces per-job timeouts and
// cancellation through context.Context, deduplicates identical work through
// a sharded LRU result cache keyed by a canonical function/defect hash, and
// streams per-job results as they finish.
//
// The engine is what cmd/xbarserver serves over HTTP, what memxbar.NewEngine
// exposes as a library API, and what cmd/experiments uses to parallelize the
// paper's table reproductions across cores.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/trace"
)

// Options tunes an engine.
type Options struct {
	// Workers bounds concurrent job execution; zero means GOMAXPROCS.
	Workers int
	// CacheSize is the result cache entry budget: zero means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// CacheShards splits the cache (zero means 16).
	CacheShards int
	// DefaultTimeout bounds each job's execution when the job doesn't set
	// its own; zero means no limit. Cooperative kernels (Monte Carlo)
	// abort at the deadline; the uninterruptible synthesis/map kernels
	// run to completion on their worker and report a late result, so
	// concurrent compute never exceeds Workers.
	DefaultTimeout time.Duration
	// StatusLimit bounds the in-memory job status store used by the HTTP
	// service; the oldest finished jobs are evicted first. Zero means
	// 16384.
	StatusLimit int
	// MaxQueuedJobs bounds jobs admitted but not yet finished across all
	// batches; Submit fails with ErrOverloaded (retryable) beyond it, and
	// with ErrBatchTooLarge (not retryable) for a single batch bigger than
	// the limit. Zero means unlimited.
	MaxQueuedJobs int
	// MaxBatches bounds concurrently open (not fully finished) batches;
	// Submit fails with ErrOverloaded beyond it. Zero means unlimited.
	MaxBatches int
	// JournalDir, when non-empty, makes finished results durable in a
	// segmented write-ahead log under this directory: every cache insert
	// is group-committed to the journal before the result is published,
	// New recovers by replaying the journal (tolerating a torn final
	// record), and the log is compacted in the background. The journal is
	// the engine's only durable state: without it the result cache lives
	// in memory and starts empty.
	JournalDir string
	// JournalSegmentBytes rotates journal segments past this size; zero
	// means the journal package default (4 MiB).
	JournalSegmentBytes int64
	// JournalCompactInterval is the background compaction period; zero
	// means DefaultJournalCompactInterval, negative disables background
	// compaction.
	JournalCompactInterval time.Duration
	// JournalMaxAge drops journal records older than this at compaction;
	// zero keeps all. Results dropped this way stay in the in-memory cache
	// until it evicts them or the process restarts, and a restart does not
	// restore them.
	JournalMaxAge time.Duration
	// JournalMaxRecords keeps only the newest this-many live journal
	// records at compaction; zero keeps all.
	JournalMaxRecords int
	// JournalNoSync skips the per-commit fsync (tests and benchmarks
	// only; production journals must sync).
	JournalNoSync bool
	// FollowPeer, when non-empty, runs this engine as a follower of the
	// peer xbarserver at this base URL: the peer's journal is pulled over
	// GET /v1/journal/tail and replayed into the local cache (and local
	// journal), so this instance warm-starts from the peer and
	// continuously mirrors its results.
	FollowPeer string
	// FollowPollInterval paces follower retries when the peer is down (the
	// base of the pull loop's capped exponential backoff); zero means
	// DefaultFollowPollInterval.
	FollowPollInterval time.Duration
	// ClusterSelf, when non-empty, runs this engine as a member of a
	// self-healing cluster, advertised to peers at this base URL. Members
	// elect a leader through lease records in the journal: followers mirror
	// the leader's journal exactly as with FollowPeer, but when the
	// leader's lease expires the follower with the highest replicated
	// cursor promotes itself and the rest of the fleet re-aims at it.
	// Cluster mode wants JournalDir set — the journal is both the ballot
	// box and the replication feed.
	ClusterSelf string
	// ClusterPeers lists the other members' base URLs (excluding self).
	ClusterPeers []string
	// LeaseDuration is how long a follower tolerates silence from the
	// leader before starting an election; the leader renews its lease at
	// half this period. Zero means DefaultLeaseDuration.
	LeaseDuration time.Duration
	// HeartbeatInterval paces the election loop (lease renewal, peer state
	// polls, expiry checks); zero means LeaseDuration/3.
	HeartbeatInterval time.Duration
	// ClientRPS enables per-client submission quotas in the HTTP layer:
	// each X-Client-ID may submit this many batches per second sustained
	// (burst up to ClientBurst) before getting 429 + Retry-After without
	// consuming queue slots. Zero disables per-client quotas.
	ClientRPS float64
	// ClientBurst is the per-client burst allowance; zero means the
	// larger of 1 and one second's worth of ClientRPS.
	ClientBurst int
	// TraceSampleRate is the probability an unremarkable finished trace is
	// kept in the span store (errored and slow-tail traces are always
	// kept). Zero means the trace package default (0.10); negative keeps
	// only errored, slow-tail, and explicitly sampled traces.
	TraceSampleRate float64
}

// ErrOverloaded is reported (wrapped) by Submit when admission control
// rejects a batch that could be admitted later: the caller should back off
// and retry. The HTTP layer maps it to 429 Too Many Requests with a
// Retry-After header.
var ErrOverloaded = errors.New("engine: overloaded")

// ErrBatchTooLarge is reported (wrapped) by Submit for a batch bigger than
// MaxQueuedJobs: such a batch can never be admitted, so retrying is
// pointless — split it instead. The HTTP layer maps it to 413.
var ErrBatchTooLarge = errors.New("engine: batch exceeds queue capacity")

// Status is a job's lifecycle state.
type Status string

const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
)

// JobStatus is the queryable state of one submitted job.
type JobStatus struct {
	ID     string     `json:"id"`
	Status Status     `json:"status"`
	Result *JobResult `json:"result,omitempty"`
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Workers       int   `json:"workers"`
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	CacheHits     int64 `json:"cache_hits"`
	Errors        int64 `json:"errors"`
	MaxConcurrent int64 `json:"max_concurrent"`
	CacheEntries  int   `json:"cache_entries"`
	// Deduped counts jobs coalesced onto an identical in-flight execution
	// (they also count as CacheHits when the leader succeeds).
	Deduped int64 `json:"deduped,omitempty"`
	// Rejected counts batch submissions refused by admission control
	// (overload and batch-too-large); QuotaRejected counts submissions the
	// HTTP layer refused for a per-client quota before they reached
	// admission.
	Rejected      int64 `json:"rejected,omitempty"`
	QuotaRejected int64 `json:"quota_rejected,omitempty"`
	// QueueDepth and OpenBatches are the live admission-control levels.
	QueueDepth  int `json:"queue_depth,omitempty"`
	OpenBatches int `json:"open_batches,omitempty"`
	// Replicated counts results applied from a followed peer's journal.
	Replicated int64 `json:"replicated,omitempty"`
	// JournalRecords and JournalSeq describe the durable job journal when
	// Options.JournalDir is set: live records on disk and the newest
	// committed sequence number (the follower cursor high-water mark).
	JournalRecords int    `json:"journal_records,omitempty"`
	JournalSeq     uint64 `json:"journal_seq,omitempty"`
}

// Batch is one submitted group of jobs. Results carries each job's outcome
// as it finishes (no ordering guarantee) and closes when the batch is done;
// it is buffered to the batch size and each job sends exactly once, so a
// caller that never reads it blocks no worker. IDs lists the assigned job
// ids in spec order. ID names the batch for the HTTP streaming endpoint
// (GET /v1/batches/{id}/events).
type Batch struct {
	ID      string
	IDs     []string
	Results <-chan JobResult
}

// Engine runs job batches on a bounded worker pool.
type Engine struct {
	opt     Options
	queue   chan *task
	cache   *resultCache
	journal *journal.Journal
	met     *engineMetrics
	traces  *trace.Store

	workerWG sync.WaitGroup
	submitWG sync.WaitGroup

	mu          sync.Mutex
	closed      bool
	status      map[string]*JobStatus
	order       []string
	inflight    map[string]*flight
	batches     map[string]*batchState
	batchOrder  []string
	openBatches int // batches submitted but not fully finished
	queuedJobs  int // jobs admitted but not yet finished

	compactStop chan struct{}
	compactWG   sync.WaitGroup

	followCancel func() // cancels the follower's context; nil when not following
	followWG     sync.WaitGroup

	cluster        *clusterNode // lease-based election state; nil without ClusterSelf
	recoveredLease *leaseClaim  // newest lease record seen during journal replay

	streamStop chan struct{} // guarded by mu; closed and replaced by StopStreams

	nextID        atomic.Int64
	nextBatch     atomic.Int64
	stSubmitted   atomic.Int64
	stCompleted   atomic.Int64
	stCacheHits   atomic.Int64
	stErrors      atomic.Int64
	stActive      atomic.Int64
	stMaxActive   atomic.Int64
	stReplicated  atomic.Int64
	stReplCursor  atomic.Uint64
	stDeduped     atomic.Int64
	stRejected    atomic.Int64
	stQuotaReject atomic.Int64
}

// flight is one in-progress execution of a job identity, shared by every
// concurrent job with the same hash (singleflight).
type flight struct {
	done chan struct{}
	res  JobResult
	// ctxFailed marks a failure caused by the leader's own context
	// (cancellation or deadline): followers should retry rather than
	// inherit it. Deterministic job errors are inherited.
	ctxFailed bool
}

type task struct {
	id    string
	spec  JobSpec
	ctx   context.Context
	out   chan JobResult
	wg    *sync.WaitGroup
	batch *batchState
	enq   time.Time // when the task entered the queue (queue-wait metric)
}

// traceSC is the batch span context per-job spans parent under, or the
// zero context for a batch submitted before tracing initialized.
func (t *task) traceSC() trace.SpanContext {
	if t.batch == nil {
		return trace.SpanContext{}
	}
	return t.batch.sc
}

// traceID is the pre-rendered trace id string for metric exemplars ("" for
// an untraced batch).
func (t *task) traceID() string {
	if t.batch == nil {
		return ""
	}
	return t.batch.traceID
}

// New starts an engine. Callers must Close it to release the workers.
func New(opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.StatusLimit <= 0 {
		opt.StatusLimit = 16384
	}
	e := &Engine{
		opt:        opt,
		queue:      make(chan *task, 4*opt.Workers),
		status:     make(map[string]*JobStatus),
		inflight:   make(map[string]*flight),
		batches:    make(map[string]*batchState),
		streamStop: make(chan struct{}),
		met:        newEngineMetrics(),
		traces:     trace.NewStore(trace.Options{SampleRate: opt.TraceSampleRate}),
	}
	e.registerEngineGauges()
	if opt.CacheSize >= 0 {
		e.cache = newResultCache(opt.CacheSize, opt.CacheShards)
	}
	if e.cache != nil && opt.JournalDir != "" {
		e.openJournal()
	}
	if opt.ClusterSelf != "" {
		e.startCluster()
	}
	if e.cache != nil && (opt.FollowPeer != "" || e.clusterFollowing()) {
		e.startFollower()
	}
	if e.cache == nil && (opt.JournalDir != "" || opt.FollowPeer != "") {
		// Journal and follower state both live in the result cache; with
		// caching disabled they would be write-only. Say so loudly rather
		// than let an operator believe results are durable.
		log.Printf("engine: caching disabled (CacheSize < 0): ignoring JournalDir=%q FollowPeer=%q — results will NOT be durable or mirrored",
			opt.JournalDir, opt.FollowPeer)
	}
	for i := 0; i < opt.Workers; i++ {
		e.workerWG.Add(1)
		go e.worker()
	}
	return e
}

// Submit enqueues a batch and returns immediately. Jobs not yet started
// when ctx is cancelled complete with the context error in their result;
// running Monte Carlo jobs abort cooperatively. An empty batch is valid
// and yields an immediately closed Results channel. When Options bounds
// admission (MaxQueuedJobs, MaxBatches), over-limit submissions fail with
// an error wrapping ErrOverloaded instead of queuing without bound.
func (e *Engine) Submit(ctx context.Context, specs []JobSpec) (*Batch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("engine: closed")
	}
	if len(specs) == 0 {
		e.mu.Unlock()
		out := make(chan JobResult)
		close(out)
		return &Batch{Results: out}, nil
	}
	if e.opt.MaxQueuedJobs > 0 && len(specs) > e.opt.MaxQueuedJobs {
		e.mu.Unlock()
		e.rejected("batch_too_large")
		return nil, fmt.Errorf("%w: batch of %d jobs > queue limit %d (split the batch)",
			ErrBatchTooLarge, len(specs), e.opt.MaxQueuedJobs)
	}
	if e.opt.MaxBatches > 0 && e.openBatches >= e.opt.MaxBatches {
		e.mu.Unlock()
		e.rejected("overloaded")
		return nil, fmt.Errorf("%w: %d batches open (limit %d)",
			ErrOverloaded, e.opt.MaxBatches, e.opt.MaxBatches)
	}
	if e.opt.MaxQueuedJobs > 0 && e.queuedJobs+len(specs) > e.opt.MaxQueuedJobs {
		queued := e.queuedJobs
		e.mu.Unlock()
		e.rejected("overloaded")
		return nil, fmt.Errorf("%w: %d jobs queued and batch adds %d (limit %d)",
			ErrOverloaded, queued, len(specs), e.opt.MaxQueuedJobs)
	}
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = fmt.Sprintf("j%08d", e.nextID.Add(1))
		e.recordLocked(ids[i])
	}
	bs := newBatchState(fmt.Sprintf("b%08d", e.nextBatch.Add(1)), ids)
	// Every batch gets a trace: the caller's span context (HTTP admission,
	// gateway propagation) when one rides in on ctx, a fresh root
	// otherwise. The batch span parents every per-job lifecycle span.
	parent := trace.FromContext(ctx)
	if !parent.Valid() {
		parent = trace.SpanContext{Trace: trace.NewTraceID()}
	}
	bs.sc = parent.Child()
	bs.parent = parent.Span
	bs.traceID = bs.sc.Trace.String()
	bs.start = time.Now()
	e.registerBatchLocked(bs)
	e.openBatches++
	e.queuedJobs += len(specs)
	e.submitWG.Add(1)
	e.mu.Unlock()
	e.stSubmitted.Add(int64(len(specs)))

	out := make(chan JobResult, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	go func() {
		defer e.submitWG.Done()
		for i := range specs {
			t := &task{id: ids[i], spec: specs[i], ctx: ctx, out: out, wg: &wg, batch: bs, enq: time.Now()}
			select {
			case e.queue <- t:
			case <-ctx.Done():
				e.finish(t, errResult(t, ctx.Err()))
			}
		}
	}()
	go func() {
		wg.Wait()
		e.mu.Lock()
		e.openBatches--
		e.mu.Unlock()
		close(out)
		end := time.Now()
		failed := bs.failed()
		e.traces.Record(&trace.Span{
			Trace:  bs.sc.Trace,
			ID:     bs.sc.Span,
			Parent: bs.parent,
			Name:   spanBatch,
			Start:  bs.start.UnixNano(),
			End:    end.UnixNano(),
			Detail: bs.id,
		})
		e.traces.FinishTrace(bs.sc, bs.start, end, failed)
	}()
	return &Batch{ID: bs.id, IDs: ids, Results: out}, nil
}

// Run submits the batch and blocks until every job finishes (or is
// cancelled), returning results in spec order. The returned results are
// the batch's only record: Run drops its job statuses and stream record
// from the stores the HTTP service polls, so an in-process caller looping
// over Run (the experiment studies) leaves no per-job state behind.
func (e *Engine) Run(ctx context.Context, specs []JobSpec) ([]JobResult, error) {
	b, err := e.Submit(ctx, specs)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(b.IDs))
	for i, id := range b.IDs {
		pos[id] = i
	}
	out := make([]JobResult, len(specs))
	for r := range b.Results {
		out[pos[r.ID]] = r
	}
	// Every job has finished (its status was set before its result was
	// sent), so nothing writes these entries again. The ids left in the
	// insertion orders are pruned as missing entries once over the limit.
	e.mu.Lock()
	for _, id := range b.IDs {
		delete(e.status, id)
	}
	delete(e.batches, b.ID)
	e.mu.Unlock()
	return out, nil
}

// Job reports the status of a submitted job by id.
func (e *Engine) Job(id string) (JobStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.status[id]
	if !ok {
		return JobStatus{}, false
	}
	cp := *st
	if st.Result != nil {
		r := *st.Result
		cp.Result = &r
	}
	return cp, true
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:       e.opt.Workers,
		Submitted:     e.stSubmitted.Load(),
		Completed:     e.stCompleted.Load(),
		CacheHits:     e.stCacheHits.Load(),
		Errors:        e.stErrors.Load(),
		MaxConcurrent: e.stMaxActive.Load(),
		Replicated:    e.stReplicated.Load(),
		Deduped:       e.stDeduped.Load(),
		Rejected:      e.stRejected.Load(),
		QuotaRejected: e.stQuotaReject.Load(),
	}
	if e.cache != nil {
		s.CacheEntries = e.cache.Len()
	}
	e.mu.Lock()
	s.QueueDepth = e.queuedJobs
	s.OpenBatches = e.openBatches
	e.mu.Unlock()
	s.JournalRecords, s.JournalSeq = e.journalStats()
	return s
}

// Ready reports whether the engine can currently take and durably serve
// work: nil when it is accepting submissions and its journal (if
// configured) is writable. A draining engine (Close in progress) and one
// whose journal went read-only (failed rollback) are unready — alive, but
// to be taken out of load-balancer rotation. GET /readyz maps this to
// 200/503; liveness stays on /healthz, which answers as long as the
// process serves HTTP at all.
func (e *Engine) Ready() error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return errors.New("engine: draining")
	}
	if e.journal != nil {
		if err := e.journal.Healthy(); err != nil {
			return fmt.Errorf("journal not writable: %w", err)
		}
	}
	return nil
}

// Close stops accepting work, waits for queued jobs to drain, releases the
// workers, and flushes and closes the journal. Safe to call more than
// once. Use CloseTimeout when a stuck job must not be allowed to hang
// process exit.
func (e *Engine) Close() { e.CloseTimeout(0) }

// CloseTimeout is Close with a bound on the drain: when the queued jobs
// have not finished within d (zero means wait forever), the remaining work
// is abandoned — the journal is still flushed and closed, so every result
// journaled before the timeout stays durable. Safe to call more than once.
func (e *Engine) CloseTimeout(d time.Duration) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.StopStreams()
	// The cluster loop stops before the follower: it is the only other
	// caller of startFollower/stopFollower, so once it has exited the
	// follower teardown below cannot race a failover restarting it.
	e.stopCluster()
	e.stopFollower()
	drained := make(chan struct{})
	go func() {
		e.submitWG.Wait()
		close(e.queue)
		e.workerWG.Wait()
		close(drained)
	}()
	if d > 0 {
		select {
		case <-drained:
		case <-time.After(d):
			log.Printf("engine: close timed out after %v with jobs still running; abandoning the drain", d)
		}
	} else {
		<-drained
	}
	if e.compactStop != nil {
		close(e.compactStop)
		e.compactWG.Wait()
	}
	if e.journal != nil {
		// Abandoned workers that finish later get ErrClosed from their
		// journal append (logged); their results were never published as
		// durable.
		if err := e.journal.Close(); err != nil {
			log.Printf("engine: closing journal: %v", err)
		}
	}
}

// ---------------------------------------------------------------------------
// Internals.

func (e *Engine) worker() {
	defer e.workerWG.Done()
	for t := range e.queue {
		a := e.stActive.Add(1)
		for {
			p := e.stMaxActive.Load()
			if a <= p || e.stMaxActive.CompareAndSwap(p, a) {
				break
			}
		}
		picked := time.Now()
		e.met.observeQueueWait(t.spec.Kind, picked.Sub(t.enq), t.traceID())
		if sc := t.traceSC(); sc.Valid() {
			e.traces.Record(&trace.Span{
				Trace:  sc.Trace,
				ID:     trace.NewSpanID(),
				Parent: sc.Span,
				Name:   spanQueue,
				Start:  t.enq.UnixNano(),
				End:    picked.UnixNano(),
				JobID:  t.id,
				Kind:   string(t.spec.Kind),
			})
		}
		e.setRunning(t.id)
		res := e.runTask(t)
		e.stActive.Add(-1)
		e.finish(t, res)
	}
}

// runTask executes one job: deadline setup, cache lookup, singleflight
// dedup, then the kernel.
func (e *Engine) runTask(t *task) JobResult {
	ctx := t.ctx
	if d := t.spec.timeout(e.opt.DefaultTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	key := t.spec.hashKey()
	for {
		if err := ctx.Err(); err != nil {
			return errResult(t, err)
		}
		if e.cache != nil {
			if r, ok := e.cache.Get(key); ok {
				e.stCacheHits.Add(1)
				e.met.cacheHits.Inc()
				r.ID, r.CacheHit, r.Elapsed = t.id, true, 0
				e.recordJobSpan(t, spanCache, time.Now(), time.Now(), "")
				return r
			}
		}
		e.mu.Lock()
		fl, ok := e.inflight[key]
		if ok {
			// Identical work is already running on another worker: wait
			// for it instead of computing it twice.
			e.mu.Unlock()
			e.stDeduped.Add(1)
			e.met.dedup.Inc()
			joinStart := time.Now()
			select {
			case <-fl.done:
				e.recordJobSpan(t, spanDedup, joinStart, time.Now(), fl.res.Err)
				if fl.res.Err == "" {
					e.stCacheHits.Add(1)
					e.met.cacheHits.Inc()
					r := fl.res
					r.ID, r.CacheHit, r.Elapsed = t.id, true, 0
					return r
				}
				if fl.ctxFailed {
					// The leader died of its own cancellation or
					// deadline; retry through the cache/flight path so
					// exactly one follower re-runs the kernel.
					continue
				}
				// Deterministic job error: same spec, same failure.
				r := fl.res
				r.ID = t.id
				return r
			case <-ctx.Done():
				return errResult(t, ctx.Err())
			}
		}
		fl = &flight{done: make(chan struct{})}
		e.inflight[key] = fl
		e.mu.Unlock()
		e.met.cacheMisses.Inc()
		// The leader runs the kernel on this worker goroutine, so
		// concurrent compute never exceeds the Workers cap: cancellation
		// and deadlines reach cooperative kernels (Monte Carlo) through
		// ctx, while the uninterruptible synthesis/map kernels run to
		// completion and report their (possibly late) result.
		execStart := time.Now()
		fl.res = Execute(ctx, t.spec)
		e.recordJobSpan(t, execSpanName(t.spec.Kind), execStart, time.Now(), fl.res.Err)
		e.met.observeJob(t.spec.Kind, fl.res.Elapsed, t.traceID())
		fl.ctxFailed = fl.res.Err != "" && ctx.Err() != nil
		if fl.res.Err == "" && e.cache != nil {
			// Durable before published: the journal fsync completes before
			// the result becomes visible anywhere — including the cache,
			// where a concurrent identical job could otherwise serve it to
			// a client ahead of the commit.
			if e.journal != nil {
				commitStart := time.Now()
				e.journalAppend(key, fl.res)
				e.recordJobSpan(t, spanJournal, commitStart, time.Now(), "")
			}
			e.cache.Put(key, fl.res)
		}
		e.mu.Lock()
		delete(e.inflight, key)
		e.mu.Unlock()
		close(fl.done)
		r := fl.res
		r.ID = t.id
		return r
	}
}

func (e *Engine) finish(t *task, r JobResult) {
	if r.Err != "" {
		e.stErrors.Add(1)
	}
	e.stCompleted.Add(1)
	e.met.countJob(t.spec.Kind, r.Err)
	e.mu.Lock()
	if st, ok := e.status[t.id]; ok {
		st.Status = StatusDone
		rc := r
		st.Result = &rc
	}
	e.queuedJobs--
	e.mu.Unlock()
	if t.batch != nil {
		pubStart := time.Now()
		t.batch.publish(r)
		e.recordJobSpan(t, spanPublish, pubStart, time.Now(), r.Err)
	}
	t.out <- r
	t.wg.Done()
}

// recordJobSpan records one per-job lifecycle span under the batch span.
// A no-op for untraced batches (library submissions before tracing, tests
// that build tasks by hand).
func (e *Engine) recordJobSpan(t *task, name trace.Name, start, end time.Time, errStr string) {
	sc := t.traceSC()
	if !sc.Valid() {
		return
	}
	e.traces.Record(&trace.Span{
		Trace:  sc.Trace,
		ID:     trace.NewSpanID(),
		Parent: sc.Span,
		Name:   name,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
		JobID:  t.id,
		Kind:   string(t.spec.Kind),
		Err:    errStr,
	})
}

func (e *Engine) setRunning(id string) {
	e.mu.Lock()
	if st, ok := e.status[id]; ok && st.Status == StatusPending {
		st.Status = StatusRunning
	}
	e.mu.Unlock()
}

// recordLocked registers a pending job in the status store and evicts the
// oldest finished jobs beyond the limit. Live jobs are never dropped, but
// they don't stall eviction either: a stuck job at the head of the order
// is skipped and the finished jobs behind it are evicted, so the store
// stays bounded under sustained traffic. Caller holds e.mu.
func (e *Engine) recordLocked(id string) {
	e.status[id] = &JobStatus{ID: id, Status: StatusPending}
	e.order = append(e.order, id)
	e.order = pruneOrder(e.order, e.opt.StatusLimit,
		func(id string) bool {
			st, ok := e.status[id]
			return !ok || st.Status == StatusDone
		},
		func(id string) { delete(e.status, id) })
}

// pruneOrder is the shared eviction loop of the bounded insertion-ordered
// stores (job statuses, batch registry): entries beyond limit are evicted
// oldest first, but only when evictable reports they are finished — live
// entries are kept (and skipped, so one stuck entry at the head can't pin
// the store). The usual case — a finished head — stays O(1); compaction
// only runs when live entries sit in front of evictable ones.
func pruneOrder(order []string, limit int, evictable func(id string) bool, evict func(id string)) []string {
	excess := len(order) - limit
	for excess > 0 && evictable(order[0]) {
		evict(order[0])
		order = order[1:]
		excess--
	}
	if excess <= 0 {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if excess > 0 && evictable(id) {
			evict(id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// rejected books one admission-control refusal under both counter systems
// (Stats and /metrics).
func (e *Engine) rejected(reason string) {
	e.stRejected.Add(1)
	e.met.rejects.With(reason).Inc()
}

func errResult(t *task, err error) JobResult {
	return JobResult{ID: t.id, Kind: t.spec.Kind, Err: err.Error()}
}
