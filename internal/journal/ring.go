package journal

import "sort"

// ringCapacity is the tail ring's record capacity: comfortably larger than
// one follower pull window (1024 records) so a caught-up follower never
// falls through to a file scan. Tests shrink it to reach the scan path.
var ringCapacity = 2048

// recordRing is a fixed-capacity ring of the newest committed records,
// kept in sequence order. It exists so tail reads (ReadAfter — the
// follower-replication feed) are answered from memory instead of
// re-reading segment files while holding the journal lock, which stalled
// the group-commit batcher behind every tail request.
//
// floor is the highest sequence number NOT present in the ring (0 while
// the ring still holds the journal's entire history): the ring can answer
// a cursor iff after >= floor, because then every committed record past
// the cursor is in the ring. Guarded by the journal's mu.
type recordRing struct {
	buf   []Record
	start int // index of the oldest record
	n     int
	floor uint64
}

func newRecordRing(capacity int) *recordRing {
	return &recordRing{buf: make([]Record, capacity)}
}

// push appends one committed record (callers push in commit order, so the
// ring stays seq-sorted), evicting the oldest when full.
//
//xbar:hotpath
func (r *recordRing) push(rec Record) {
	if r.n == len(r.buf) {
		r.floor = r.buf[r.start].Seq
		r.buf[r.start] = Record{}
		r.start = (r.start + 1) % len(r.buf)
		r.n--
	}
	r.buf[(r.start+r.n)%len(r.buf)] = rec
	r.n++
}

// covers reports whether every committed record with Seq > after is in the
// ring, i.e. whether a read from this cursor needs no file scan.
func (r *recordRing) covers(after uint64) bool {
	return after >= r.floor
}

// readAfter returns up to limit records with Seq > after, oldest first
// (limit <= 0 means no bound). The caller must have checked covers(after).
// Returned records share the ring's key/value backing arrays; callers must
// treat them as read-only.
func (r *recordRing) readAfter(after uint64, limit int) []Record {
	// The ring is seq-sorted; binary-search the first record past the
	// cursor.
	first := sort.Search(r.n, func(i int) bool {
		return r.buf[(r.start+i)%len(r.buf)].Seq > after
	})
	count := r.n - first
	if limit > 0 && count > limit {
		count = limit
	}
	if count <= 0 {
		return nil
	}
	out := make([]Record, count)
	for i := 0; i < count; i++ {
		out[i] = r.buf[(r.start+first+i)%len(r.buf)]
	}
	return out
}

// rebuild replaces the ring's contents with the newest records of live
// (already seq-sorted — compaction hands over its surviving record list),
// so the ring keeps mirroring the on-disk state across a compaction: a
// superseded record dropped from disk is dropped from the ring too.
func (r *recordRing) rebuild(live []Record) {
	r.start, r.n, r.floor = 0, 0, 0
	if drop := len(live) - len(r.buf); drop > 0 {
		r.floor = live[drop-1].Seq
		live = live[drop:]
	}
	for _, rec := range live {
		r.push(rec)
	}
}
