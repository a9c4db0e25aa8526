package engine

import (
	"sync"
	"time"

	"repro/internal/trace"
)

// maxRetainedJobs bounds the jobs the batch registry holds: while it holds
// more, finished batches are evicted oldest first. Batches with unfinished
// jobs are never evicted, so a live stream or poll always has its state.
const maxRetainedJobs = 16384

// Job states in batchState.state. A job is pending until a worker picks it
// up and running until it finishes; a finished job's state is jobDone plus
// the index of its result in results.
const (
	jobPending = iota
	jobRunning
	jobDone
)

// batchState is the engine's one record of a submitted batch, read by the
// SSE stream and by Job: every job result published so far, in finish
// order, each job's state, and a broadcast channel that subscribers wait
// on for the next publish. Results are appended exactly once per job (by
// Engine.finish), so a subscriber that replays from cursor zero sees every
// result exactly once no matter when it connects.
type batchState struct {
	id     string
	jobIDs []string // immutable after construction

	// Trace identity, set once by Submit before the batch is registered:
	// sc is the batch span's own context (per-job spans parent under
	// sc.Span), parent is the admission/caller span id, traceID is the
	// pre-rendered id string handed to metric exemplars.
	sc      trace.SpanContext
	parent  trace.SpanID
	traceID string
	start   time.Time

	mu      sync.Mutex
	results []JobResult
	state   []int         // per job in spec order: jobPending, jobRunning, or jobDone + result index
	errs    bool          // any published result carried an error
	changed chan struct{} // closed and replaced on every publish
}

func newBatchState(id string, jobIDs []string) *batchState {
	return &batchState{
		id:      id,
		jobIDs:  jobIDs,
		results: make([]JobResult, 0, len(jobIDs)),
		state:   make([]int, len(jobIDs)),
		changed: make(chan struct{}),
	}
}

// setRunning marks job i as picked up by a worker.
func (b *batchState) setRunning(i int) {
	b.mu.Lock()
	b.state[i] = jobRunning
	b.mu.Unlock()
}

// publish records job i's result and wakes every subscriber.
func (b *batchState) publish(i int, r JobResult) {
	b.mu.Lock()
	b.state[i] = jobDone + len(b.results)
	b.results = append(b.results, r)
	if r.Err != "" {
		b.errs = true
	}
	close(b.changed)
	b.changed = make(chan struct{})
	b.mu.Unlock()
}

// job reports job i's status, with a copy of its result once it finished.
func (b *batchState) job(i int) JobStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := JobStatus{ID: b.jobIDs[i], Status: StatusPending}
	switch s := b.state[i]; {
	case s == jobRunning:
		st.Status = StatusRunning
	case s >= jobDone:
		r := b.results[s-jobDone]
		st.Status, st.Result = StatusDone, &r
	}
	return st
}

// failed reports whether any job of the batch published an error (the
// trace sampling policy pins errored batches).
func (b *batchState) failed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errs
}

// next returns a copy of the results past cursor i, the channel signalling
// the next publish, and whether every job of the batch has finished as of
// this snapshot.
func (b *batchState) next(i int) ([]JobResult, <-chan struct{}, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var rs []JobResult
	if i < len(b.results) {
		rs = append(rs, b.results[i:]...)
	}
	return rs, b.changed, len(b.results) == len(b.jobIDs)
}

// done reports whether every job of the batch has finished.
func (b *batchState) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.results) == len(b.jobIDs)
}

// batch looks up a tracked batch by id.
func (e *Engine) batch(id string) (*batchState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.batches[id]
	return b, ok
}

// jobRef locates a tracked job: its batch and its position in it.
type jobRef struct {
	batch *batchState
	pos   int
}

// registerBatchLocked tracks a new batch and its jobs, then evicts finished
// batches oldest first while the registry holds more than maxRetainedJobs
// jobs. A finished head is popped in O(1); live batches are kept but do
// not stall eviction, so one stuck batch at the head cannot pin the
// registry. Caller holds e.mu.
func (e *Engine) registerBatchLocked(b *batchState) {
	e.batches[b.id] = b
	for i, id := range b.jobIDs {
		e.jobs[id] = jobRef{b, i}
	}
	e.batchOrder = append(e.batchOrder, b)
	for len(e.jobs) > maxRetainedJobs && e.batchOrder[0].done() {
		e.dropBatchLocked(e.batchOrder[0])
		e.batchOrder[0] = nil // the backing array must not keep its results alive
		e.batchOrder = e.batchOrder[1:]
	}
	if len(e.jobs) <= maxRetainedJobs {
		return
	}
	kept := e.batchOrder[:0]
	for _, bs := range e.batchOrder {
		if len(e.jobs) > maxRetainedJobs && bs.done() {
			e.dropBatchLocked(bs)
			continue
		}
		kept = append(kept, bs)
	}
	clear(e.batchOrder[len(kept):])
	e.batchOrder = kept
}

// dropBatchLocked removes a batch and its jobs from the registry's lookups;
// the caller removes it from batchOrder. Caller holds e.mu.
func (e *Engine) dropBatchLocked(b *batchState) {
	delete(e.batches, b.id)
	for _, id := range b.jobIDs {
		delete(e.jobs, id)
	}
}

// StopStreams unblocks every currently connected Server-Sent-Events
// subscriber so in-flight streams end promptly instead of waiting out
// their batches. Wire it to http.Server.RegisterOnShutdown so graceful
// shutdown isn't held hostage by a live stream; Close calls it as well.
// The engine keeps running and the signal re-arms: subscribers that
// connect after a StopStreams stream normally.
func (e *Engine) StopStreams() {
	e.mu.Lock()
	close(e.streamStop)
	e.streamStop = make(chan struct{})
	e.mu.Unlock()
}

// streamStopChan snapshots the stop signal for one subscriber: it fires
// for the StopStreams calls that happen while this subscriber is live.
func (e *Engine) streamStopChan() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.streamStop
}

// resumeAfter returns the replay cursor just past the result whose job id
// is lastID (the SSE Last-Event-ID of a reconnecting client), or 0 when
// the id is unknown so the whole batch replays.
func (b *batchState) resumeAfter(lastID string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range b.results {
		if r.ID == lastID {
			return i + 1
		}
	}
	return 0
}
