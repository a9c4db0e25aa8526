package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// shrinkRing sets the tail ring's capacity for journals the test opens,
// and restores it when the test ends.
func shrinkRing(t *testing.T, n int) {
	t.Helper()
	prev := ringCapacity
	ringCapacity = n
	t.Cleanup(func() { ringCapacity = prev })
}

// ringRecords collects the ring's contents oldest-first.
func ringRecords(r *recordRing) []Record {
	return r.readAfter(0, 0)
}

func TestRingPushEvictFloor(t *testing.T) {
	r := newRecordRing(4)
	if !r.covers(0) {
		t.Fatal("empty ring should cover cursor 0")
	}
	for i := 1; i <= 4; i++ {
		r.push(Record{Seq: uint64(i), Key: key(i), Value: val(i)})
	}
	if r.floor != 0 {
		t.Fatalf("floor = %d before eviction, want 0", r.floor)
	}
	// Fifth push evicts seq 1: the ring no longer holds the full history.
	r.push(Record{Seq: 5, Key: key(5), Value: val(5)})
	if r.floor != 1 {
		t.Fatalf("floor = %d after evicting seq 1, want 1", r.floor)
	}
	if r.covers(0) {
		t.Fatal("ring covers cursor 0 after eviction")
	}
	if !r.covers(1) {
		t.Fatal("ring should cover cursor 1 (records 2..5 all present)")
	}
	got := ringRecords(r)
	if len(got) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(got))
	}
	for i, rec := range got {
		if want := uint64(i + 2); rec.Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestRingReadAfter(t *testing.T) {
	r := newRecordRing(8)
	for i := 1; i <= 12; i++ { // wraps: holds seqs 5..12, floor 4
		r.push(Record{Seq: uint64(i)})
	}
	cases := []struct {
		after uint64
		limit int
		want  []uint64
	}{
		{4, 0, []uint64{5, 6, 7, 8, 9, 10, 11, 12}},
		{7, 0, []uint64{8, 9, 10, 11, 12}},
		{7, 2, []uint64{8, 9}},
		{12, 0, nil},
		{99, 0, nil},
	}
	for _, tc := range cases {
		got := r.readAfter(tc.after, tc.limit)
		if len(got) != len(tc.want) {
			t.Fatalf("readAfter(%d, %d) returned %d records, want %d", tc.after, tc.limit, len(got), len(tc.want))
		}
		for i, rec := range got {
			if rec.Seq != tc.want[i] {
				t.Fatalf("readAfter(%d, %d)[%d].Seq = %d, want %d", tc.after, tc.limit, i, rec.Seq, tc.want[i])
			}
		}
	}
}

func TestRingRebuild(t *testing.T) {
	r := newRecordRing(4)
	for i := 1; i <= 10; i++ {
		r.push(Record{Seq: uint64(i)})
	}
	// Rebuild with fewer records than capacity: full history, floor resets.
	r.rebuild([]Record{{Seq: 3}, {Seq: 7}})
	if r.floor != 0 {
		t.Fatalf("floor = %d after rebuild within capacity, want 0", r.floor)
	}
	if got := ringRecords(r); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 7 {
		t.Fatalf("ring after rebuild = %v, want seqs [3 7]", got)
	}
	// Rebuild with more records than capacity keeps the newest and sets
	// floor to the last one excluded.
	live := make([]Record, 6)
	for i := range live {
		live[i] = Record{Seq: uint64(10 + i)}
	}
	r.rebuild(live)
	if r.floor != 11 {
		t.Fatalf("floor = %d after capped rebuild, want 11", r.floor)
	}
	if got := ringRecords(r); len(got) != 4 || got[0].Seq != 12 || got[3].Seq != 15 {
		t.Fatalf("ring after capped rebuild = %v, want seqs 12..15", got)
	}
}

// TestReadAfterRingParity drives ReadAfter through both the ring and the
// file-scan path and checks they agree record-for-record. The small ring
// forces recent cursors onto the ring path while older ones fall through
// to the scan.
func TestReadAfterRingParity(t *testing.T) {
	dir := t.TempDir()
	shrinkRing(t, 8)
	j, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 30)

	for after := uint64(0); after <= 31; after++ {
		for _, limit := range []int{0, 1, 5, 100} {
			recs, last, err := j.ReadAfter(after, limit)
			if err != nil {
				t.Fatalf("ReadAfter(%d, %d): %v", after, limit, err)
			}
			if last != 30 {
				t.Fatalf("ReadAfter(%d, %d) lastSeq = %d, want 30", after, limit, last)
			}
			want := collect(t, j, after)
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			if len(recs) != len(want) {
				t.Fatalf("ReadAfter(%d, %d) returned %d records, want %d", after, limit, len(recs), len(want))
			}
			for i := range recs {
				if recs[i].Seq != want[i].Seq ||
					string(recs[i].Key) != string(want[i].Key) ||
					string(recs[i].Value) != string(want[i].Value) {
					t.Fatalf("ReadAfter(%d, %d)[%d] = %+v, want %+v", after, limit, i, recs[i], want[i])
				}
			}
		}
	}
}

// TestTailReadNoFileIO proves ring-served tail reads touch no segment
// files: with the files deleted out from under a live journal, a recent
// cursor still reads fine while an old cursor (forced onto the scan path)
// fails.
func TestTailReadNoFileIO(t *testing.T) {
	dir := t.TempDir()
	shrinkRing(t, 8)
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendN(t, j, 0, 20) // ring holds 13..20, floor 12

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (found %d)", err, len(segs))
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}

	recs, last, err := j.ReadAfter(15, 0)
	if err != nil {
		t.Fatalf("ring-covered ReadAfter after segment deletion: %v", err)
	}
	if last != 20 || len(recs) != 5 || recs[0].Seq != 16 {
		t.Fatalf("ReadAfter(15) = %d records (last %d), want 5 from seq 16", len(recs), last)
	}
	if _, _, err := j.ReadAfter(0, 0); err == nil {
		t.Fatal("scan-path ReadAfter succeeded with segment files deleted")
	}
}

// TestRingSeededOnRecovery reopens a journal and checks tail reads are
// ring-served immediately — recovery's segment scan seeds the ring, so a
// follower reattaching after a leader restart never pays a file scan.
func TestRingSeededOnRecovery(t *testing.T) {
	dir := t.TempDir()
	shrinkRing(t, 8)
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 0, 20)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	j, err = Open(dir, Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, last, err := j.ReadAfter(14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 20 || len(recs) != 6 {
		t.Fatalf("ReadAfter(14) after reopen = %d records (last %d), want 6 (last 20)", len(recs), last)
	}
	var buf strings.Builder
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `xbar_journal_tail_reads_total{source="ring"} 1`) {
		t.Fatalf("tail read after reopen was not ring-served:\n%s", buf.String())
	}
}

// TestCompactRebuildsRing checks the ring mirrors the on-disk state after
// compaction: superseded records leave the ring and survivors stay
// readable at their original sequence numbers.
func TestCompactRebuildsRing(t *testing.T) {
	dir := t.TempDir()
	shrinkRing(t, 64)
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Two rounds over the same 10 keys: round one (seqs 1..10) is fully
	// superseded by round two (seqs 11..20).
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			if _, err := j.Append(key(i), []byte(fmt.Sprintf("round-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, last, err := j.ReadAfter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 20 || len(recs) != 10 {
		t.Fatalf("post-compaction ReadAfter(0) = %d records (last %d), want 10 (last 20)", len(recs), last)
	}
	for i, rec := range recs {
		if want := uint64(11 + i); rec.Seq != want {
			t.Fatalf("post-compaction record %d has seq %d, want %d", i, rec.Seq, want)
		}
		if !strings.HasPrefix(string(rec.Value), "round-1-") {
			t.Fatalf("post-compaction record %d holds superseded value %q", i, rec.Value)
		}
	}
	// The ring rebuilt to exactly the live set: it answers tail reads from
	// memory even with the segment files gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	if recs, _, err = j.ReadAfter(10, 0); err != nil || len(recs) != 10 {
		t.Fatalf("ring-served ReadAfter(10) after compaction = %d records, err %v", len(recs), err)
	}
}
