// Package journal is a segmented append-only write-ahead log of key/value
// records, built for the engine's result cache: every committed append is
// durable (group-committed fsync) before Append returns, recovery replays
// the longest valid prefix (per-record CRC, per-segment hash chain, torn
// final record tolerated), segments rotate at a size threshold, and
// compaction rewrites the newest record per key into a fresh generation —
// dropping superseded and expired records — with an atomic manifest swap so
// a crash at any point loses nothing.
//
// Readers resume from any sequence number with ReadAfter, which is what the
// xbarserver follower-replication endpoint serves: sequence numbers are
// assigned once and survive compaction, so a follower's cursor stays valid
// across the leader's rewrites.
package journal

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// Options tunes a journal.
type Options struct {
	// SegmentBytes rotates the live segment once it grows past this many
	// bytes; zero means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-commit fsync (records are still written through
	// the OS). For tests and benchmarks; production journals must sync.
	NoSync bool
	// MaxAge drops records older than this at compaction; zero keeps all.
	MaxAge time.Duration
	// MaxRecords keeps only the newest this-many live records at
	// compaction; zero keeps all.
	MaxRecords int
	// Metrics, when non-nil, registers the journal's instrument families
	// (commit latency by sync mode, group-commit batch size, append/
	// compaction outcomes, seq/records/segments gauges, tail-read sources)
	// on this registry. The engine passes its per-engine registry through.
	Metrics *metrics.Registry
}

const (
	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 4 << 20
	// DefaultBatchRecords caps the records of one group commit.
	DefaultBatchRecords = 256
)

// ErrClosed is reported by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is one open segmented log. It is safe for concurrent use.
type Journal struct {
	dir string
	opt Options

	// mu guards every field below plus all file IO. The batcher holds it
	// for the write+fsync of each group commit; readers (ReadAfter,
	// Replay) and Compact hold it while scanning, so reads never observe
	// a half-written commit or a mid-compaction directory.
	mu       sync.Mutex
	gen      uint64
	segs     []segmentInfo // active generation, ascending index
	tail     *os.File      // last segment, open for append
	tailSize int64
	lastSeq  uint64
	chain    chainHash
	records  int            // records on disk in the active generation
	keys     map[string]int // on-disk record count per key (dup detection)
	oldest   int64          // oldest record Time in the generation, 0 when empty
	notify   chan struct{}  // closed and replaced on every commit
	ring     *recordRing    // recent committed records
	closed   bool
	failed   error // sticky: rollback of a failed commit failed, appends refused

	met *journalMetrics // nil-safe instrument set (nil without Options.Metrics)

	in        chan *appendReq
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once // guards close(j.stop) for concurrent Close calls

	// commitBuf and seqScratch are the committer's reusable scratch: the
	// frame-encoding buffer and the per-batch table of seq slices. Only the
	// committer goroutine touches them, so they need no lock. The inner seq
	// slices handed to waiters are NOT reused — they either live on the
	// waiter's pooled request or are freshly allocated per batch request.
	commitBuf  []byte
	seqScratch [][]uint64

	// lock is the flock-held LOCK file guaranteeing single-process
	// ownership of dir; the kernel releases it if the process dies.
	lock *os.File

	// now stamps appended records; tests override it to age records.
	now func() time.Time
}

// Open recovers the journal in dir (creating it if needed) and starts the
// group-commit batcher. Recovery walks the active generation's segments in
// order, verifying each record's CRC and the rolling hash chain, and keeps
// the longest valid prefix: a torn or corrupt record truncates its segment
// there, and any later segments are discarded. Leftover files from other
// generations (a compaction that crashed before or after its manifest
// swap) are removed.
func Open(dir string, opt Options) (*Journal, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Exactly one process may own the directory: a second Open's recovery
	// would truncate the live tail out from under the owner's writes,
	// corrupting records both processes acknowledged. flock (not a pid
	// file) so the kernel releases the lock when the owner dies, however
	// it dies.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			//xbar:allow errcheck-durable failed-Open cleanup; the flock is released by close regardless of the error
			lock.Close()
		}
	}()
	j := &Journal{
		dir:    dir,
		opt:    opt,
		keys:   make(map[string]int),
		notify: make(chan struct{}),
		in:     make(chan *appendReq, 4*DefaultBatchRecords),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		now:    time.Now,
		lock:   lock,
		met:    newJournalMetrics(opt.Metrics, opt.NoSync),
		ring:   newRecordRing(ringCapacity),
	}
	m, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := writeManifest(dir, 0); err != nil {
			return nil, err
		}
	} else {
		j.gen = m.Gen
	}
	byGen, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for gen, segs := range byGen {
		if gen == j.gen {
			continue
		}
		// Uncommitted (crashed compaction) or superseded generation.
		for _, s := range segs {
			if err := os.Remove(s.path); err != nil {
				return nil, fmt.Errorf("journal: removing stale segment %s: %w", s.path, err)
			}
		}
	}
	if err := j.recover(byGen[j.gen]); err != nil {
		return nil, err
	}
	if opt.Metrics != nil {
		j.registerGauges(opt.Metrics)
	}
	opened = true
	go j.run()
	return j, nil
}

// lockDir takes an exclusive non-blocking flock on dir's LOCK file. The
// file is advisory and empty; only the kernel lock matters.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		//xbar:allow errcheck-durable cleanup after failed flock; the flock error is what the caller sees
		f.Close()
		return nil, fmt.Errorf("journal: %s is already open in another process: %w", dir, err)
	}
	return f, nil
}

// recover validates the generation's segments and opens the tail for
// append, keeping the longest valid prefix: a segment with a bad header,
// broken hash chain, or wrong index is dropped along with everything after
// it; a torn or corrupt record truncates its segment there and drops the
// later segments. Caller is Open; no lock needed yet.
func (j *Journal) recover(segs []segmentInfo) error {
	kept := segs[:0]
	for i, s := range segs {
		// Recovery seeds the tail ring with the newest committed records,
		// so tail reads serve from memory from the first request.
		valid, header, err := j.scanSegment(s.path, s.index, func(rec Record) error {
			j.ring.push(rec)
			return nil
		})
		if err != nil {
			log.Printf("journal: dropping segment %s and all after it: %v", s.path, err)
			for _, drop := range segs[i:] {
				if rmErr := os.Remove(drop.path); rmErr != nil {
					return rmErr
				}
			}
			break
		}
		segs[i].baseSeq = header.baseSeq
		kept = append(kept, segs[i])
		if valid < j.sizeOf(s.path) {
			log.Printf("journal: truncating %s to %d bytes (torn or corrupt tail), dropping later segments", s.path, valid)
			if trErr := os.Truncate(s.path, valid); trErr != nil {
				return trErr
			}
			for _, drop := range segs[i+1:] {
				if rmErr := os.Remove(drop.path); rmErr != nil {
					return rmErr
				}
			}
			break
		}
	}
	j.segs = kept
	if len(j.segs) == 0 {
		return j.createSegmentLocked(0, j.lastSeq+1)
	}
	tail := j.segs[len(j.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		//xbar:allow errcheck-durable cleanup after failed seek; nothing was written through f
		f.Close()
		return err
	}
	j.tail = f
	j.tailSize = size
	return nil
}

// scanSegment walks one segment file, verifying the header (before any
// record is folded into the journal state, so a rejected segment leaves
// j.lastSeq/j.chain untouched) and then every record's CRC and seq
// ordering, calling fn for each valid record and advancing
// j.lastSeq/j.chain/j.records/j.keys. It returns the byte offset of the
// valid prefix and the parsed header. The error reports the first invalid
// structure; records before it have already been delivered.
func (j *Journal) scanSegment(path string, wantIndex uint64, fn func(Record) error) (int64, segmentHeader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, segmentHeader{}, err
	}
	header, err := parseSegmentHeader(data)
	if err != nil {
		return 0, header, err
	}
	if header.gen != j.gen {
		return 0, header, fmt.Errorf("journal: segment generation %d, want %d", header.gen, j.gen)
	}
	if header.index != wantIndex {
		return 0, header, fmt.Errorf("journal: segment header index %d, file named %d", header.index, wantIndex)
	}
	if header.chainIn != j.chain {
		return 0, header, fmt.Errorf("journal: segment %s breaks the hash chain", path)
	}
	if header.baseSeq <= j.lastSeq {
		return 0, header, fmt.Errorf("journal: segment base seq %d overlaps last seq %d", header.baseSeq, j.lastSeq)
	}
	// The header alone advances the sequence floor: baseSeq was derived
	// from the sequence counter when the segment was created, so even a
	// segment holding no records (a compaction that expired everything)
	// must keep the counter from rewinding — a rewind would hand out
	// already-used seqs, which the NEXT recovery would then destroy as an
	// ordering break, losing acknowledged records. This floor also makes
	// any rec.Seq < baseSeq fall to the ordering check below.
	j.lastSeq = header.baseSeq - 1
	off := int64(headerSize)
	for int(off) < len(data) {
		rec, n, perr := parseFrame(data[off:])
		if perr != nil {
			return off, header, nil // torn/corrupt tail: valid prefix ends here
		}
		if rec.Seq <= j.lastSeq {
			return off, header, nil // ordering break: treat as corruption
		}
		if ferr := fn(rec); ferr != nil {
			return off, header, ferr
		}
		j.chain = j.chain.advance(frameBody(data[off : off+int64(n)]))
		j.lastSeq = rec.Seq
		j.records++
		j.keys[string(rec.Key)]++
		if j.oldest == 0 || rec.Time < j.oldest {
			j.oldest = rec.Time
		}
		off += int64(n)
	}
	return off, header, nil
}

func (j *Journal) sizeOf(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// createSegmentLocked opens a fresh segment continuing the journal's
// current chain, closing the previous tail. The caller must already have
// fsynced any outgoing-tail frames it intends to acknowledge: commit()
// syncs before publishing at the rotation boundary, and recover has no
// open tail — so no (second) seal-sync happens here. Caller holds j.mu
// (or is Open/recover).
func (j *Journal) createSegmentLocked(index, baseSeq uint64) error {
	path := segmentPath(j.dir, j.gen, index)
	//xbar:allow lock-io segment rotation runs under mu by design: the header must exist before any commit appends to it
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	// A failure past this point must remove the created file: it is not in
	// j.segs, so leaving it would make every retry of this rotation fail on
	// O_EXCL — a transient error would permanently disable appends.
	abort := func(err error) error {
		//xbar:allow errcheck-durable abort cleanup; the triggering error is returned
		//xbar:allow lock-io abort cleanup on the rotation path, which runs under mu by design
		f.Close()
		//xbar:allow lock-io abort cleanup on the rotation path, which runs under mu by design
		os.Remove(path)
		return err
	}
	header := segmentHeader{gen: j.gen, index: index, baseSeq: baseSeq, chainIn: j.chain}
	//xbar:allow lock-io segment rotation runs under mu by design; see Journal.mu doc
	if _, err := f.Write(header.encode()); err != nil {
		return abort(err)
	}
	if !j.opt.NoSync {
		//xbar:allow lock-io segment rotation fsyncs the header under mu by design
		if err := f.Sync(); err != nil {
			return abort(err)
		}
	}
	if err := syncDir(j.dir); err != nil {
		return abort(err)
	}
	if j.tail != nil {
		//xbar:allow errcheck-durable outgoing tail was fsynced before rotation; close errors cannot lose acknowledged frames
		//xbar:allow lock-io sealing the outgoing tail is part of the under-mu rotation
		j.tail.Close()
	}
	j.tail = f
	j.tailSize = headerSize
	j.segs = append(j.segs, segmentInfo{index: index, baseSeq: baseSeq, path: path})
	return nil
}

// rotateLocked seals the tail and starts the next segment. Caller holds
// j.mu.
func (j *Journal) rotateLocked() error {
	next := j.segs[len(j.segs)-1].index + 1
	return j.createSegmentLocked(next, j.lastSeq+1)
}

// LastSeq reports the sequence number of the newest committed record.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Records reports how many records the active generation holds on disk
// (superseded duplicates included until compaction rewrites them away).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Has reports whether the journal holds a committed record under key.
func (j *Journal) Has(key []byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.keys[string(key)] > 0
}

// Segments reports how many segment files the active generation holds.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segs)
}

// Notify returns a channel that is closed when the next group commit
// lands, waking tail readers without polling.
func (j *Journal) Notify() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// Replay streams every committed record with Seq > after, oldest first.
// It reads the on-disk state under the journal lock, so it observes only
// whole commits.
func (j *Journal) Replay(after uint64, fn func(Record) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayLocked(after, fn)
}

func (j *Journal) replayLocked(after uint64, fn func(Record) error) error {
	if j.closed {
		return ErrClosed
	}
	// scanned tracks the highest seq accounted for so far (parsed frames
	// plus whole skipped segments via their baseSeq). Once it reaches
	// j.lastSeq, every committed record has been seen, so anything further
	// on disk is leftovers of a failed commit whose rollback also failed —
	// tolerated like recovery tolerates a torn tail, never delivered.
	var scanned uint64
	for i, s := range j.segs {
		// Skip whole segments the cursor has passed: a segment is
		// skippable when the next one starts at or before after+1.
		if i+1 < len(j.segs) && j.segs[i+1].baseSeq <= after+1 {
			continue
		}
		if s.baseSeq > 0 && s.baseSeq-1 > scanned {
			scanned = s.baseSeq - 1
		}
		//xbar:allow lock-io replay runs at Open and after compaction, both under mu before any committer exists
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		off := headerSize
		for off < len(data) {
			rec, n, perr := parseFrame(data[off:])
			if perr != nil {
				if scanned >= j.lastSeq {
					return nil // unparseable bytes past the published state
				}
				return fmt.Errorf("journal: replay hit invalid frame in %s at %d: %w", s.path, off, perr)
			}
			if rec.Seq > j.lastSeq {
				return nil // whole frames past the published state
			}
			scanned = rec.Seq
			if rec.Seq > after {
				if ferr := fn(rec); ferr != nil {
					return ferr
				}
			}
			off += n
		}
	}
	return nil
}

// ReadAfter returns up to limit committed records with Seq > after, oldest
// first, plus the journal's newest committed sequence number. limit <= 0
// means no bound. Cursors within the tail ring's window (the common case:
// a caught-up follower trails by at most one pull) are answered from
// memory; older cursors fall back to a segment-file scan under the journal
// lock. Returned records may share backing memory with the ring; callers
// must treat Key and Value as read-only.
func (j *Journal) ReadAfter(after uint64, limit int) ([]Record, uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, 0, ErrClosed
	}
	if j.ring.covers(after) {
		j.met.countTailRead(true)
		return j.ring.readAfter(after, limit), j.lastSeq, nil
	}
	j.met.countTailRead(false)
	var out []Record
	errStop := errors.New("journal: read limit")
	err := j.replayLocked(after, func(rec Record) error {
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, 0, err
	}
	return out, j.lastSeq, nil
}

// markFailedLocked records a sticky failure: every later Append is refused
// with this error until restart, while committed records stay readable.
// Caller holds j.mu.
func (j *Journal) markFailedLocked(err error) error {
	j.failed = err
	log.Printf("%v (journal refuses appends until restart)", err)
	return err
}

// Close flushes pending appends, fsyncs, and closes the journal. Appends
// issued after Close report ErrClosed. Close is safe to call from
// concurrent goroutines; every call blocks until shutdown completes.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() { close(j.stop) })
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if j.tail != nil {
		//xbar:allow lock-io shutdown: the committer has drained, mu only fences late readers
		err = j.tail.Close()
		j.tail = nil
	}
	if j.lock != nil {
		//xbar:allow errcheck-durable the LOCK file is empty and advisory; the kernel drops the flock on close either way
		//xbar:allow lock-io shutdown: the committer has drained, mu only fences late readers
		j.lock.Close() // releases the flock
		j.lock = nil
	}
	return err
}

// Healthy reports whether the journal can currently accept appends: nil
// when open and writable, ErrClosed after Close, or the sticky failure
// recorded when a commit rollback failed. Readiness probes (/readyz) call
// this — a member whose journal refuses writes must leave the ring even
// though its process is alive and its cache still serves reads.
func (j *Journal) Healthy() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.tail == nil {
		return ErrClosed
	}
	return j.failed
}
