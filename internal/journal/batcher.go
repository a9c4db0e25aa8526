package journal

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Group-commit batcher: every Append/AppendBatch enqueues a request and
// blocks until its records are written and fsynced. A single committer
// goroutine drains the queue, so concurrent appenders that arrive while one
// fsync is in flight are committed together under the next one — batching
// emerges from backlog instead of from a fixed wait, which keeps
// single-writer latency at one fsync while amortizing the fsync cost under
// load (the shape of the batched ledger writer in the audit-log exemplar).

// KV is one key/value pair of a batched append.
type KV struct {
	Key, Value []byte
}

type appendReq struct {
	kvs  []KV
	resp chan appendRes
	// single marks a pooled one-record request (Append's path): the
	// committer writes the assigned seq into seqOne instead of allocating a
	// response slice, and the waiter copies the value out before the request
	// returns to the pool.
	single bool
	one    [1]KV
	seqOne [1]uint64
}

type appendRes struct {
	seqs []uint64
	err  error
}

// reqPool recycles append requests — struct, response channel, and the
// single-record KV/seq storage — so the steady-state append path allocates
// nothing per request.
var reqPool = sync.Pool{
	New: func() any { return &appendReq{resp: make(chan appendRes, 1)} },
}

// putReq returns a request to the pool, dropping references to the
// caller's key/value buffers. Only call it once the committer is provably
// done with the request (its response was received, or it was never
// enqueued): the response channel must be empty when the request is
// reused.
func putReq(req *appendReq) {
	req.kvs = nil
	req.one[0] = KV{}
	req.single = false
	reqPool.Put(req)
}

// Append durably writes one record and returns its assigned sequence
// number: when Append returns nil, the record is on disk (fsynced unless
// Options.NoSync) and visible to ReadAfter/Replay. An error means the
// record was NOT committed and readers will not see it — but, as in any
// WAL without commit markers, not that it is guaranteed absent from disk:
// if the error-path rollback itself failed, fully-written frames of the
// failed batch can survive a restart and recover as committed records
// (callers needing exactly-once must make records idempotent, as the
// engine's key->result records are).
func (j *Journal) Append(key, value []byte) (uint64, error) {
	req := reqPool.Get().(*appendReq)
	req.one[0] = KV{Key: key, Value: value}
	req.kvs = req.one[:1]
	req.single = true
	res, recycle := j.submit(req)
	var seq uint64
	if res.err == nil {
		// res.seqs aliases req.seqOne; copy the value out before the
		// request can be pooled and reused.
		seq = res.seqs[0]
	}
	if recycle {
		putReq(req)
	}
	return seq, res.err
}

// AppendBatch durably writes every record of kvs under ONE group commit and
// returns their assigned sequence numbers, in order. The assignment is
// all-or-nothing: either every record is committed — with consecutive
// sequence numbers, in one segment (a batch is never split across a
// rotation, so no published/rollback boundary can fall inside it) — or none
// is and the error reports why. One fsync covers the whole batch (plus any
// concurrent appends the committer drained alongside it), which is what the
// follower replication path leans on: a pulled window commits as one
// deterministic unit instead of one fsync per record. An empty batch is a
// no-op.
func (j *Journal) AppendBatch(kvs []KV) ([]uint64, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	req := reqPool.Get().(*appendReq)
	req.kvs = kvs
	res, recycle := j.submit(req)
	if recycle {
		// res.seqs (when set) was allocated for this batch and handed to
		// the caller; the committer never reuses it, so pooling the
		// request does not alias it.
		putReq(req)
	}
	return res.seqs, res.err
}

// submit enqueues req and blocks for the commit outcome. recycle reports
// that the committer is provably done with the request — its response was
// received, or it was never enqueued — so the caller may return it to the
// pool. When recycle is false the request may still sit unread in j.in
// (the enqueue raced past the committer's final drain) and must be leaked
// to the GC instead of reused.
func (j *Journal) submit(req *appendReq) (res appendRes, recycle bool) {
	select {
	case j.in <- req:
	case <-j.stop:
		return appendRes{err: ErrClosed}, true
	}
	select {
	case res := <-req.resp:
		return res, true
	case <-j.done:
		// The committer has exited. It drains j.in before exiting, so
		// either our request was committed (the response is buffered) or
		// the enqueue raced past the final drain — the send and the stop
		// were both ready and the select picked the send — and nobody
		// will ever answer.
		select {
		case res := <-req.resp:
			return res, true
		default:
			return appendRes{err: ErrClosed}, false
		}
	}
}

// run is the committer goroutine: take one request (blocking), drain
// whatever else is queued up to the batch record cap, commit the group,
// repeat.
func (j *Journal) run() {
	defer close(j.done)
	batch := make([]*appendReq, 0, DefaultBatchRecords)
	for {
		batch = batch[:0]
		nrec := 0
		select {
		case req := <-j.in:
			batch = append(batch, req)
			nrec = len(req.kvs)
		case <-j.stop:
			// Drain stragglers that won the race against stop, then exit.
			for {
				select {
				case req := <-j.in:
					batch = append(batch, req)
				default:
					if len(batch) > 0 {
						j.commit(batch)
					}
					return
				}
			}
		}
	drain:
		for nrec < DefaultBatchRecords {
			select {
			case req := <-j.in:
				batch = append(batch, req)
				nrec += len(req.kvs)
			default:
				break drain
			}
		}
		j.commit(batch)
	}
}

// commit writes one batch of requests as consecutive frames, rotating
// segments at the size threshold, fsyncs once, publishes the new state, and
// acknowledges every waiter. Rotation — and therefore every publish and
// rollback boundary — happens only between requests, never inside one, so a
// multi-record AppendBatch is atomic: its records are all acknowledged with
// their seqs or all reported failed. On a write, sync, or rotation error
// the tail is truncated back to the last published state, so the on-disk
// log never holds frames whose append reported failure (phantom records a
// follower could read, or orphans that a later commit would append after
// with reused sequence numbers). If that rollback itself fails, the journal
// is marked failed and refuses all further appends until restart; readers
// skip anything past the published state. Restart recovery truncates a torn
// orphan, but fully-written orphan frames are indistinguishable from
// committed records and recover as such (see the Append contract).
func (j *Journal) commit(batch []*appendReq) {
	start := time.Now()
	total := 0
	for _, req := range batch {
		total += len(req.kvs)
	}
	j.mu.Lock()
	if j.closed || j.tail == nil || j.failed != nil {
		err := ErrClosed
		if j.failed != nil {
			err = j.failed
		}
		j.mu.Unlock()
		j.met.countRefused(total)
		for _, req := range batch {
			req.resp <- appendRes{err: err}
		}
		return
	}
	// The seq table and frame buffer are committer-goroutine-local scratch,
	// reused across commits so the steady-state append path stops paying
	// per-commit allocations. Entries are cleared up front: a stale inner
	// slice from an earlier batch must never be acknowledged.
	if cap(j.seqScratch) < len(batch) {
		j.seqScratch = make([][]uint64, len(batch))
	}
	seqs := j.seqScratch[:len(batch)]
	for i := range seqs {
		seqs[i] = nil
	}
	now := j.now().UnixNano()
	var err error
	buf := j.commitBuf[:0]
	flush := func() {
		if err != nil || len(buf) == 0 {
			return
		}
		//xbar:allow lock-io single-committer group commit: mu guards all file IO by design; readers are served by the tail ring
		if _, werr := j.tail.Write(buf); werr != nil {
			err = werr
			return
		}
		j.tailSize += int64(len(buf))
		buf = buf[:0]
	}
	lastSeq, chain, records := j.lastSeq, j.chain, j.records
	// published counts the batch requests folded into the journal state
	// (their records are durable and will be acknowledged with their seqs
	// even if a later request fails); pubRecords is the record count behind
	// them; stable is the tail size consistent with that state — the
	// rollback point.
	published, pubRecords := 0, 0
	stable := j.tailSize
	publish := func(upTo int) {
		j.lastSeq, j.chain, j.records = lastSeq, chain, records
		j.publishLocked(batch, seqs, published, upTo, now)
		for i := published; i < upTo; i++ {
			pubRecords += len(batch[i].kvs)
		}
		published = upTo
		stable = j.tailSize
	}
	for i, req := range batch {
		if err != nil {
			break
		}
		// Size the whole request up front: if it would cross the segment
		// threshold, rotate BEFORE writing any of it, so its frames land in
		// one segment and publish boundaries stay request-aligned. A request
		// bigger than the segment budget overflows its fresh segment rather
		// than splitting.
		var need int64
		for _, kv := range req.kvs {
			need += int64(frameOverhead + recordFixedSize + len(kv.Key) + len(kv.Value))
		}
		if j.tailSize+int64(len(buf))+need > j.opt.SegmentBytes && (j.tailSize > headerSize || len(buf) > 0) {
			flush()
			if err == nil && !j.opt.NoSync {
				// The frames ahead of the rotation are published (and
				// acknowledged) below, so they must be durable first.
				//xbar:allow lock-io group commit fsyncs under mu by design; see Journal.mu doc
				err = j.tail.Sync()
			}
			if err == nil {
				// rotateLocked reads j.lastSeq/j.chain for the new
				// header, so publish progress before sealing.
				publish(i)
				err = j.rotateLocked()
				if err == nil {
					stable = j.tailSize
				}
			}
		}
		if err != nil {
			break
		}
		if req.single {
			// One-record pooled request: the seq rides back on the request
			// itself instead of a fresh slice.
			seqs[i] = req.seqOne[:1]
		} else {
			seqs[i] = make([]uint64, len(req.kvs))
		}
		for k, kv := range req.kvs {
			lastSeq++
			rec := Record{Seq: lastSeq, Time: now, Key: kv.Key, Value: kv.Value}
			s := len(buf)
			buf = appendFrame(buf, rec)
			chain = chain.advance(frameBody(buf[s:]))
			records++
			seqs[i][k] = lastSeq
		}
	}
	flush()
	if err == nil && !j.opt.NoSync {
		//xbar:allow lock-io group commit fsyncs under mu by design; see Journal.mu doc
		err = j.tail.Sync()
	}
	if err == nil {
		publish(len(batch))
	} else {
		j.rollbackLocked(stable)
	}
	if published > 0 {
		close(j.notify)
		j.notify = make(chan struct{})
	}
	j.commitBuf = buf[:0] // keep the (possibly grown) capacity for the next commit
	j.mu.Unlock()
	j.met.observeCommit(time.Since(start), total, pubRecords)
	for i, req := range batch {
		if i < published {
			req.resp <- appendRes{seqs: seqs[i]}
		} else {
			req.resp <- appendRes{err: err}
		}
	}
}

// publishLocked folds the committed batch requests [published, upTo) into
// the journal's in-memory read state: per-key counts, the tail ring, and
// the oldest-record clock. It runs under j.mu on every commit, between the
// group fsync and the acknowledgements, so it is pinned allocation-free
// apart from the deliberate per-record copies the ring owns. Caller holds
// j.mu.
//
//xbar:hotpath
func (j *Journal) publishLocked(batch []*appendReq, seqs [][]uint64, published, upTo int, now int64) {
	for i := published; i < upTo; i++ {
		req := batch[i]
		for k := range req.kvs {
			kv := &req.kvs[k]
			j.keys[string(kv.Key)]++
			// The ring owns copies: the appender's key/value slices are the
			// caller's to reuse once the append returns.
			j.ring.push(Record{
				Seq:  seqs[i][k],
				Time: now,
				//xbar:allow hotpath-alloc deliberate per-record copy; the ring must outlive the appender's buffer
				Key: append([]byte(nil), kv.Key...),
				//xbar:allow hotpath-alloc deliberate per-record copy; the ring must outlive the appender's buffer
				Value: append([]byte(nil), kv.Value...),
			})
		}
	}
	if j.oldest == 0 && upTo > 0 {
		j.oldest = now
	}
}

// rollbackLocked discards frames written past the published state after a
// failed commit: truncate the tail back to stable, reset the write offset
// (the tail is not opened O_APPEND, so a partial write leaves the offset
// past the truncation point), and fsync the truncation. Any failure here
// marks the journal failed so no later commit can write after the orphan
// frames and reuse their sequence numbers. Caller holds j.mu.
func (j *Journal) rollbackLocked(stable int64) {
	fail := func(what string, err error) {
		j.markFailedLocked(fmt.Errorf("journal: %s during rollback of failed commit: %w", what, err))
	}
	//xbar:allow lock-io rollback must repair the tail before any other committer can run
	if err := j.tail.Truncate(stable); err != nil {
		fail("truncate", err)
		return
	}
	//xbar:allow lock-io rollback must repair the tail before any other committer can run
	if _, err := j.tail.Seek(stable, io.SeekStart); err != nil {
		fail("seek", err)
		return
	}
	j.tailSize = stable
	if !j.opt.NoSync {
		//xbar:allow lock-io rollback must repair the tail before any other committer can run
		if err := j.tail.Sync(); err != nil {
			fail("sync", err)
		}
	}
}
