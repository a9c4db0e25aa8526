package journal

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func appendN(t *testing.T, j *Journal, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if _, err := j.Append(key(i), val(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%04d-payload", i)) }

func collect(t *testing.T, j *Journal, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := j.Replay(after, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 100)
	if got := j.LastSeq(); got != 100 {
		t.Fatalf("LastSeq = %d, want 100", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := collect(t, j2, 0)
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Key, key(i)) || !bytes.Equal(rec.Value, val(i)) {
			t.Fatalf("record %d mismatch: %q=%q", i, rec.Key, rec.Value)
		}
	}
	// Appends continue the sequence across restarts.
	seq, err := j2.Append(key(100), val(100))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 101 {
		t.Fatalf("post-restart seq = %d, want 101", seq)
	}
}

func TestRotationAndReadAfter(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 200)
	if segs := j.Segments(); segs < 3 {
		t.Fatalf("Segments = %d, want rotation to several", segs)
	}
	recs, last, err := j.ReadAfter(150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 200 || len(recs) != 50 || recs[0].Seq != 151 {
		t.Fatalf("ReadAfter(150): %d recs, first %d, last %d", len(recs), recs[0].Seq, last)
	}
	recs, _, err = j.ReadAfter(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[9].Seq != 10 {
		t.Fatalf("ReadAfter limit: %d recs", len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// All 200 records survive reopen across the rotated segments.
	j2, err := Open(dir, Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := collect(t, j2, 0); len(recs) != 200 {
		t.Fatalf("replayed %d records after rotation, want 200", len(recs))
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 2048, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := j.Append(key(w*each+i), val(w*each+i))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for w := range seqs {
		for i, s := range seqs[w] {
			if seen[s] {
				t.Fatalf("duplicate seq %d", s)
			}
			seen[s] = true
			if i > 0 && seqs[w][i-1] >= s {
				t.Fatalf("writer %d: seqs not increasing: %d then %d", w, seqs[w][i-1], s)
			}
		}
	}
	if len(seen) != writers*each {
		t.Fatalf("%d unique seqs, want %d", len(seen), writers*each)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := collect(t, j2, 0); len(recs) != writers*each {
		t.Fatalf("replayed %d, want %d", len(recs), writers*each)
	}
}

func TestNotify(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ch := j.Notify()
	select {
	case <-ch:
		t.Fatal("notify fired before any commit")
	default:
	}
	appendN(t, j, 0, 1)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("notify did not fire after commit")
	}
}

func TestCompactDedupesAndPreservesSeqs(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// 30 keys written 4 times each: compaction must keep only the last
	// write of each key, with its original sequence number.
	for round := 0; round < 4; round++ {
		for k := 0; k < 30; k++ {
			if _, err := j.Append(key(k), []byte(fmt.Sprintf("round-%d-key-%d", round, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !j.Expired() {
		t.Fatal("Expired = false with 90 superseded records")
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if j.Expired() {
		t.Fatal("Expired = true right after compaction")
	}
	recs := collect(t, j, 0)
	if len(recs) != 30 {
		t.Fatalf("%d records after compaction, want 30", len(recs))
	}
	for i, rec := range recs {
		wantSeq := uint64(90 + i + 1) // the 4th round wrote seqs 91..120
		if rec.Seq != wantSeq {
			t.Fatalf("record %d seq = %d, want %d (seqs must survive compaction)", i, rec.Seq, wantSeq)
		}
		if want := fmt.Sprintf("round-3-key-%d", i); string(rec.Value) != want {
			t.Fatalf("record %d value = %q, want %q", i, rec.Value, want)
		}
	}
	if got := j.Records(); got != 30 {
		t.Fatalf("Records = %d, want 30", got)
	}
	// The sequence counter never rewinds: next append is 121.
	seq, err := j.Append([]byte("fresh"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 121 {
		t.Fatalf("post-compaction seq = %d, want 121", seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// And the compacted generation replays after a restart.
	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := collect(t, j2, 0); len(recs) != 31 {
		t.Fatalf("replayed %d after compaction+restart, want 31", len(recs))
	}
}

func TestEmptyCompactionPreservesSeqAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opt := Options{NoSync: true, MaxAge: time.Hour}
	j, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	clock := base
	j.SetNowFunc(func() time.Time { return clock })
	appendN(t, j, 0, 10) // seqs 1..10
	clock = base.Add(2 * time.Hour)
	if err := j.Compact(); err != nil { // everything expired: empty generation
		t.Fatal(err)
	}
	if recs := collect(t, j, 0); len(recs) != 0 {
		t.Fatalf("%d records after full-expiry compaction, want 0", len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted journal must not rewind the sequence counter: the
	// empty tail segment's header baseSeq is the only trace of seqs 1..10.
	j2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j2.Append(key(10), val(10))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("seq after empty-compaction restart = %d, want 11 (counter must not rewind)", seq)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// And the record appended after the restart survives the NEXT restart
	// (a rewound counter would have written seq 1 into a baseSeq-11
	// segment, which recovery destroys as an ordering break).
	j3, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	recs := collect(t, j3, 0)
	if len(recs) != 1 || recs[0].Seq != 11 {
		t.Fatalf("second restart recovered %d records (want 1 with seq 11)", len(recs))
	}
}

func TestCommitRotationErrorKeepsJournalConsistent(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(key(0), val(0)); err != nil {
		t.Fatal(err)
	}
	// Block the next rotation: the segment file the rotation would create
	// already exists, so createSegmentLocked's O_EXCL open fails mid-commit.
	blocker := segmentPath(dir, 0, 1)
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(key(1), val(1)); err == nil {
		t.Fatal("append succeeded despite failed rotation")
	}
	// The failed append left no trace: readers see only the acknowledged
	// record, and its sequence number was not burned.
	recs, last, err := j.ReadAfter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || last != 1 {
		t.Fatalf("after failed append: %d records, last seq %d; want 1, 1", len(recs), last)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	seq, err := j.Append(key(2), val(2))
	if err != nil {
		t.Fatalf("append after rotation unblocked: %v", err)
	}
	if seq != 2 {
		t.Fatalf("seq after recovered rotation = %d, want 2", seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs2 := collect(t, j2, 0)
	if len(recs2) != 2 || recs2[0].Seq != 1 || recs2[1].Seq != 2 {
		t.Fatalf("restart recovered %d records (want seqs 1,2)", len(recs2))
	}
	if !bytes.Equal(recs2[1].Key, key(2)) {
		t.Fatalf("second record key %q, want %q", recs2[1].Key, key(2))
	}
}

func TestRollbackTruncatesUnpublishedFrames(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 3)
	// Simulate the failure shape rollbackLocked exists for: a group commit
	// that flushed frames into the tail and then errored (e.g. ENOSPC on a
	// later write or the final sync) before publishing them.
	j.mu.Lock()
	stable := j.tailSize
	orphan := appendFrame(nil, Record{Seq: j.lastSeq + 1, Time: 1, Key: []byte("orphan"), Value: []byte("x")})
	if _, werr := j.tail.Write(orphan); werr != nil {
		j.mu.Unlock()
		t.Fatal(werr)
	}
	j.tailSize += int64(len(orphan))
	j.rollbackLocked(stable)
	failedErr := j.failed
	j.mu.Unlock()
	if failedErr != nil {
		t.Fatalf("rollback reported failure: %v", failedErr)
	}
	// The orphan is gone: the next append reuses its offset and sequence
	// number cleanly, and nothing phantom is ever read back.
	seq, err := j.Append(key(3), val(3))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after rollback = %d, want 4", seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := collect(t, j2, 0)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || bytes.Equal(rec.Key, []byte("orphan")) {
			t.Fatalf("record %d: seq %d key %q", i, rec.Seq, rec.Key)
		}
	}
}

func TestFailedRollbackRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 2)
	// Swap the tail for a read-only descriptor on the same file: the
	// commit's write fails, and so does the rollback's truncate, which must
	// leave the journal failed rather than risk writing after orphans.
	j.mu.Lock()
	good := j.tail
	ro, oerr := os.Open(j.segs[len(j.segs)-1].path)
	if oerr != nil {
		j.mu.Unlock()
		t.Fatal(oerr)
	}
	j.tail = ro
	j.mu.Unlock()
	defer good.Close()
	if _, err := j.Append(key(2), val(2)); err == nil {
		t.Fatal("append with unwritable tail succeeded")
	}
	j.mu.Lock()
	failedErr := j.failed
	j.mu.Unlock()
	if failedErr == nil {
		t.Fatal("journal not marked failed after rollback failure")
	}
	if _, err := j.Append(key(3), val(3)); err == nil || !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("append on failed journal: %v, want the sticky rollback error", err)
	}
	// Committed records stay readable even in the failed state.
	recs, last, err := j.ReadAfter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || last != 2 {
		t.Fatalf("failed journal served %d records, last %d; want 2, 2", len(recs), last)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayToleratesTornOrphanTail(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 3)
	// A failed commit whose rollback also failed can leave a torn frame
	// past the published state; readers must keep serving the committed
	// prefix rather than erroring on the leftovers.
	j.mu.Lock()
	if _, werr := j.tail.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); werr != nil {
		j.mu.Unlock()
		t.Fatal(werr)
	}
	j.mu.Unlock()
	recs, last, err := j.ReadAfter(0, 0)
	if err != nil {
		t.Fatalf("ReadAfter over torn orphan tail: %v", err)
	}
	if len(recs) != 3 || last != 3 {
		t.Fatalf("served %d records, last %d; want 3, 3", len(recs), last)
	}
}

func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if j2, err := Open(dir, Options{NoSync: true}); err == nil {
		j2.Close()
		t.Fatal("second Open of a live journal directory succeeded; its recovery would truncate the owner's tail")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	j3.Close()
}

func TestCloseConcurrent(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestCompactAgeAndCountPolicy(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true, MaxAge: time.Hour, MaxRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	base := time.Unix(1_700_000_000, 0)
	clock := base
	j.SetNowFunc(func() time.Time { return clock })
	appendN(t, j, 0, 10) // stamped at base: will be over MaxAge below
	clock = base.Add(2 * time.Hour)
	appendN(t, j, 10, 10) // fresh, but MaxRecords keeps only the newest 5
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, j, 0)
	if len(recs) != 5 {
		t.Fatalf("%d records after age+count compaction, want 5", len(recs))
	}
	if recs[0].Seq != 16 || recs[4].Seq != 20 {
		t.Fatalf("kept seqs %d..%d, want 16..20", recs[0].Seq, recs[4].Seq)
	}
}

// TestHas checks Has tracks the committed key set: appends add keys,
// recovery restores them, and compaction forgets the keys it drops.
func TestHas(t *testing.T) {
	dir := t.TempDir()
	opt := Options{NoSync: true, MaxRecords: 2}
	j, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if j.Has(key(0)) {
		t.Fatal("empty journal has key 0")
	}
	appendN(t, j, 0, 3)
	if !j.Has(key(0)) || j.Has(key(3)) {
		t.Fatalf("after appending keys 0-2: Has(0) = %v, Has(3) = %v; want true, false", j.Has(key(0)), j.Has(key(3)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Has(key(0)) {
		t.Fatal("recovered journal lost key 0")
	}
	if err := j.Compact(); err != nil { // MaxRecords 2 drops key 0
		t.Fatal(err)
	}
	if j.Has(key(0)) || !j.Has(key(2)) {
		t.Fatalf("after compaction to keys 1-2: Has(0) = %v, Has(2) = %v; want false, true", j.Has(key(0)), j.Has(key(2)))
	}
}
