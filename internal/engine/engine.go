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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/trace"
)

// Options tunes an engine. Job state retention is not an option: the batch
// registry behind Job, GET /v1/jobs/{id} and the SSE stream holds every
// unfinished batch plus as many of the newest finished batches as fit in
// 16,384 jobs in all (maxRetainedJobs).
type Options struct {
	// Workers bounds concurrent job execution; zero means GOMAXPROCS.
	Workers int
	// CacheSize is the result cache entry budget: zero means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// DefaultTimeout bounds each job's execution when the job doesn't set
	// its own; zero means no limit. Cooperative kernels (Monte Carlo)
	// abort at the deadline; the uninterruptible synthesis/map kernels
	// run to completion on their worker and report a late result, so
	// concurrent compute never exceeds Workers.
	DefaultTimeout time.Duration
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
	// ClusterSelf, when non-empty, runs this engine as a member of a
	// self-healing cluster, advertised to peers at this base URL. Members
	// elect a leader through lease records in the journal and followers
	// mirror the leader's journal into their cache (and journal); when the
	// leader's lease expires, the follower with the highest replicated
	// cursor promotes itself and the rest of the fleet re-aims at it. A
	// member whose journal holds no lease runs one election inside New,
	// before it serves: it adopts a live leader, or leads when no reachable
	// peer does. Cluster mode wants JournalDir set — the journal is both
	// the ballot box and the replication feed.
	ClusterSelf string
	// ClusterPeers lists the other members' base URLs (excluding self).
	ClusterPeers []string
	// LeaseDuration is how long a follower tolerates silence from the
	// leader before starting an election. The election loop ticks at a
	// third of it, and the leader renews its lease once half of it has
	// passed since the last renewal. Zero means DefaultLeaseDuration.
	LeaseDuration time.Duration
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

// Stats is a snapshot of engine counters. Every count is read from the
// engine's metrics registry (Engine.Metrics), so /healthz and /metrics
// report one number per event. MaxConcurrent is the high-water mark of
// xbar_engine_active_workers; the other fields are live levels.
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
// (GET /v1/batches/{id}/events). The stream and each job's status (Job,
// GET /v1/jobs/{id}) stay available while the batch is unfinished or among
// the newest finished batches that fit in 16,384 jobs in all; after that
// they answer 404.
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
	inflight    map[string]*flight
	batches     map[string]*batchState // the registry: every tracked batch by id
	batchOrder  []*batchState          // tracked batches, oldest first
	jobs        map[string]jobRef      // job id -> its tracked batch and position
	openBatches int                    // batches submitted but not fully finished
	queuedJobs  int                    // jobs admitted but not yet finished

	compactStop chan struct{}
	compactWG   sync.WaitGroup

	followCancel func() // cancels the follower's context; nil when not following
	followWG     sync.WaitGroup

	cluster        *clusterNode // lease-based election state; nil without ClusterSelf
	recoveredLease *leaseClaim  // newest lease record seen during journal replay

	streamStop chan struct{} // guarded by mu; closed and replaced by StopStreams

	nextID    atomic.Int64
	nextBatch atomic.Int64
	maxActive atomic.Int64 // high-water mark of met.activeWorkers (Stats.MaxConcurrent)
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
	pos   int // the job's position in its batch (spec order)
	spec  JobSpec
	ctx   context.Context
	out   chan JobResult
	wg    *sync.WaitGroup
	batch *batchState
	enq   time.Time // when the task entered the queue (queue-wait metric)
}

// New starts an engine. Callers must Close it to release the workers.
func New(opt Options) *Engine {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		opt:        opt,
		queue:      make(chan *task, 4*opt.Workers),
		inflight:   make(map[string]*flight),
		batches:    make(map[string]*batchState),
		jobs:       make(map[string]jobRef),
		streamStop: make(chan struct{}),
		met:        newEngineMetrics(),
		traces:     trace.NewStore(trace.Options{SampleRate: opt.TraceSampleRate}),
	}
	e.registerEngineGauges()
	if opt.CacheSize >= 0 {
		e.cache = newResultCache(opt.CacheSize, defaultCacheShards)
	}
	if e.cache != nil && opt.JournalDir != "" {
		e.openJournal()
	}
	if opt.ClusterSelf != "" {
		e.startCluster()
	}
	if e.cache == nil && (opt.JournalDir != "" || opt.ClusterSelf != "") {
		// Journal and follower state both live in the result cache; with
		// caching disabled they would be write-only. Say so loudly rather
		// than let an operator believe results are durable.
		log.Printf("engine: caching disabled (CacheSize < 0): ignoring JournalDir=%q and mirroring for ClusterSelf=%q — results will NOT be durable or mirrored",
			opt.JournalDir, opt.ClusterSelf)
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
		e.met.rejects.With("batch_too_large").Inc()
		return nil, fmt.Errorf("%w: batch of %d jobs > queue limit %d (split the batch)",
			ErrBatchTooLarge, len(specs), e.opt.MaxQueuedJobs)
	}
	if e.opt.MaxBatches > 0 && e.openBatches >= e.opt.MaxBatches {
		e.mu.Unlock()
		e.met.rejects.With("overloaded").Inc()
		return nil, fmt.Errorf("%w: %d batches open (limit %d)",
			ErrOverloaded, e.opt.MaxBatches, e.opt.MaxBatches)
	}
	if e.opt.MaxQueuedJobs > 0 && e.queuedJobs+len(specs) > e.opt.MaxQueuedJobs {
		queued := e.queuedJobs
		e.mu.Unlock()
		e.met.rejects.With("overloaded").Inc()
		return nil, fmt.Errorf("%w: %d jobs queued and batch adds %d (limit %d)",
			ErrOverloaded, queued, len(specs), e.opt.MaxQueuedJobs)
	}
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = fmt.Sprintf("j%08d", e.nextID.Add(1))
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
	e.met.submitted.Add(int64(len(specs)))

	out := make(chan JobResult, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	go func() {
		defer e.submitWG.Done()
		for i := range specs {
			t := &task{id: ids[i], pos: i, spec: specs[i], ctx: ctx, out: out, wg: &wg, batch: bs, enq: time.Now()}
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
// the batch's only record: Run drops the batch from the registry the HTTP
// service reads, so an in-process caller looping over Run (the experiment
// studies) leaves no per-job state behind.
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
	// Every job has published, so nothing writes the batch again. A
	// concurrent Submit may already have evicted it.
	e.mu.Lock()
	if i := slices.IndexFunc(e.batchOrder, func(bs *batchState) bool { return bs.id == b.ID }); i >= 0 {
		e.dropBatchLocked(e.batchOrder[i])
		e.batchOrder = slices.Delete(e.batchOrder, i, i+1)
	}
	e.mu.Unlock()
	return out, nil
}

// Job reports the status of a submitted job by id, read from its batch in
// the registry.
func (e *Engine) Job(id string) (JobStatus, bool) {
	e.mu.Lock()
	ref, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return ref.batch.job(ref.pos), true
}

// Stats snapshots the engine counters from the metrics registry.
func (e *Engine) Stats() Stats {
	m := e.met
	s := Stats{
		Workers:       e.opt.Workers,
		Submitted:     m.submitted.Value(),
		Completed:     m.jobs.Sum("", ""),
		CacheHits:     m.cacheHits.Value(),
		Errors:        m.jobs.Sum("outcome", "error"),
		MaxConcurrent: e.maxActive.Load(),
		Replicated:    m.replApplied.Value(),
		Deduped:       m.dedup.Value(),
		Rejected:      m.rejects.Sum("", ""),
		QuotaRejected: m.quotaRejects.Sum("", ""),
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
		e.met.activeWorkers.Inc()
		a := e.met.activeWorkers.Value()
		for {
			p := e.maxActive.Load()
			if a <= p || e.maxActive.CompareAndSwap(p, a) {
				break
			}
		}
		picked := time.Now()
		e.met.observeQueueWait(t.spec.Kind, picked.Sub(t.enq), t.batch.traceID)
		e.recordJobSpan(t, spanQueue, t.enq, picked, "")
		t.batch.setRunning(t.pos)
		res := e.runTask(t)
		e.met.activeWorkers.Dec()
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
			e.met.dedup.Inc()
			joinStart := time.Now()
			select {
			case <-fl.done:
				e.recordJobSpan(t, spanDedup, joinStart, time.Now(), fl.res.Err)
				if fl.res.Err == "" {
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
		e.met.observeJob(t.spec.Kind, fl.res.Elapsed, t.batch.traceID)
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

// finish stores the job's result once, in its batch, where the stream and
// Job read it, then sends it on the batch's Results channel.
func (e *Engine) finish(t *task, r JobResult) {
	e.mu.Lock()
	e.queuedJobs--
	e.mu.Unlock()
	pubStart := time.Now()
	t.batch.publish(t.pos, r)
	e.recordJobSpan(t, spanPublish, pubStart, time.Now(), r.Err)
	e.met.countJob(t.spec.Kind, r.Err)
	t.out <- r
	t.wg.Done()
}

// recordJobSpan records one per-job lifecycle span under the batch span.
func (e *Engine) recordJobSpan(t *task, name trace.Name, start, end time.Time, errStr string) {
	sc := t.batch.sc
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

func errResult(t *task, err error) JobResult {
	return JobResult{ID: t.id, Kind: t.spec.Kind, Err: err.Error()}
}
