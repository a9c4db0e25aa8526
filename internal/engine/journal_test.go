package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/journal"
)

// batch64 builds the acceptance batch: 64 distinct map-hba jobs (different
// defect seeds over the Fig. 8 layout) whose results include full
// assignments, so bit-identical replay is checked on real payloads.
func batch64() []JobSpec {
	specs := make([]JobSpec, 64)
	for i := range specs {
		s := fig8Spec(MapHBA)
		s.OpenRate = 0.10
		s.SpareRows = 2
		s.Seed = int64(1000 + i)
		specs[i] = s
	}
	return specs
}

// samePayload compares two results modulo the per-lookup fields (ID,
// CacheHit, Elapsed): everything the paper's statistics are built from
// must match exactly.
func samePayload(a, b JobResult) bool {
	a.ID, a.CacheHit, a.Elapsed = "", false, 0
	b.ID, b.CacheHit, b.Elapsed = "", false, 0
	return reflect.DeepEqual(a, b)
}

// TestJournalKillRestart64 is the kill-and-restart acceptance check: a
// server that computed a 64-job batch must, restarted on the same
// journal directory, answer the same batch entirely from cache with
// bit-identical results. The journal is the engine's only durable state.
func TestJournalKillRestart64(t *testing.T) {
	dir := t.TempDir()
	specs := batch64()

	e1 := New(Options{Workers: 4, JournalDir: dir})
	first, err := e1.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if r.Err != "" {
			t.Fatalf("job %d: %s", i, r.Err)
		}
	}
	// Run returning means every result was journaled (appends are durable
	// before a result is published), so a kill here loses nothing.
	e1.Close()

	e2 := New(Options{Workers: 4, JournalDir: dir})
	defer e2.Close()
	if got := e2.Stats().CacheEntries; got != len(specs) {
		t.Fatalf("journal replay restored %d results, want %d", got, len(specs))
	}
	second, err := e2.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Err != "" || !r.CacheHit {
			t.Fatalf("job %d must come from the replayed journal: %+v", i, r)
		}
		if !samePayload(first[i], r) {
			t.Fatalf("job %d drifted across kill+restart:\n  before %+v\n  after  %+v", i, first[i], r)
		}
	}
	if hits := e2.Stats().CacheHits; hits != int64(len(specs)) {
		t.Fatalf("CacheHits = %d, want %d (whole batch from journal replay)", hits, len(specs))
	}
}

// TestFollowerConverges is the replication acceptance check on a
// two-member cluster: the member that joins second adopts the leader at
// boot, converges to its cache and passes the same all-from-cache
// bit-identical batch check, including after a restart from its own
// journal.
func TestFollowerConverges(t *testing.T) {
	specs := batch64()
	lnL, urlL := newMemberListener(t)
	_, urlF := newMemberListener(t)
	followerDir := t.TempDir()

	leader := &member{url: urlL, ln: lnL}
	leader.eng = New(clusterOpts(urlL, []string{urlF}, t.TempDir()))
	defer leader.eng.Close()
	leader.serve()
	defer leader.srv.Close()

	first, err := leader.eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if r.Err != "" {
			t.Fatalf("leader job %d: %s", i, r.Err)
		}
	}

	follower := New(clusterOpts(urlF, []string{urlL}, followerDir))
	// Wait on Replicated: it is bumped after the cache insert, so once it
	// reaches the batch size the cache provably holds every result.
	deadline := time.Now().Add(15 * time.Second)
	for follower.Stats().Replicated < int64(len(specs)) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d/%d replicated results", follower.Stats().Replicated, len(specs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := follower.Stats().CacheEntries; got != len(specs) {
		t.Fatalf("follower cache holds %d entries, want %d", got, len(specs))
	}

	res, err := follower.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != "" || !r.CacheHit {
			t.Fatalf("follower job %d not from mirrored cache: %+v", i, r)
		}
		if !samePayload(first[i], r) {
			t.Fatalf("follower job %d diverged from leader:\n  leader   %+v\n  follower %+v", i, first[i], r)
		}
	}
	follower.Close()

	// The follower journaled what it mirrored: restarted outside the
	// cluster, it still answers the batch from its own disk.
	f2 := New(Options{Workers: 2, JournalDir: followerDir})
	if got := f2.Stats().CacheEntries; got != len(specs) {
		t.Fatalf("restarted follower restored %d results, want %d", got, len(specs))
	}
	res2, err := f2.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res2 {
		if r.Err != "" || !r.CacheHit || !samePayload(first[i], r) {
			t.Fatalf("restarted follower job %d: %+v", i, r)
		}
	}
	f2.Close()

	// Restarted as a member, the follower resumes mirroring the leader its
	// journal recorded and re-pulls the leader's history from cursor zero,
	// but recognizes every already-restored record: its local journal must
	// not gain a second copy of the history. One genuinely new leader
	// result (seq 65, ordered after the 64 replayed records) proves the
	// catch-up pull completed. Only job records are counted: a member also
	// journals the lease records it mirrors.
	f3 := New(clusterOpts(urlF, []string{urlL}, followerDir))
	defer f3.Close()
	extra := fig8Spec(MapHBA)
	extra.OpenRate = 0.10
	extra.SpareRows = 2
	extra.Seed = 99_999
	if _, err := leader.eng.Run(context.Background(), []JobSpec{extra}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for f3.Stats().CacheEntries < len(specs)+1 {
		if time.Now().After(deadline) {
			t.Fatalf("re-attached follower stuck at %d entries", f3.Stats().CacheEntries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	jobs := 0
	if err := f3.journal.Replay(0, func(rec journal.Record) error {
		if !journal.IsMetaKey(rec.Key) {
			jobs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if jobs != len(specs)+1 {
		t.Fatalf("re-attached follower journal holds %d job records, want %d (history must not re-append)",
			jobs, len(specs)+1)
	}
}

// TestFollowerLiveMirroring checks results computed on the leader while
// the follower is already attached stream across promptly (the long-poll
// wakes on the leader's next commit, not on a poll interval). The follower
// is a member without a journal: a cache-only mirror.
func TestFollowerLiveMirroring(t *testing.T) {
	lnL, urlL := newMemberListener(t)
	_, urlF := newMemberListener(t)
	leader := &member{url: urlL, ln: lnL}
	leader.eng = New(clusterOpts(urlL, []string{urlF}, t.TempDir()))
	defer leader.eng.Close()
	leader.serve()
	defer leader.srv.Close()

	opts := clusterOpts(urlF, []string{urlL}, "")
	opts.Workers, opts.CacheSize = 1, 256
	follower := New(opts)
	defer follower.Close()

	for round := 0; round < 3; round++ {
		s := fig8Spec(MapHBA)
		s.OpenRate = 0.10
		s.SpareRows = 2
		s.Seed = int64(round)
		if _, err := leader.eng.Run(context.Background(), []JobSpec{s}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for follower.Stats().CacheEntries < round+1 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: follower stuck at %d entries", round, follower.Stats().CacheEntries)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestJournalTailAdvancesPastUndecodable pins the replication feed's
// cursor semantics under build version skew: a window of records that
// frame correctly but don't decode as JobResults must still advance
// MaxSeq, or a follower whose every pull lands on such a window re-reads
// it forever and never converges.
func TestJournalTailAdvancesPastUndecodable(t *testing.T) {
	e := New(Options{Workers: 1, JournalDir: t.TempDir()})
	defer e.Close()
	for i := 0; i < 2; i++ {
		if _, err := e.journal.Append([]byte{0xab, byte(i)}, []byte("not a JobResult")); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.journalTail(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 0 || resp.MaxSeq != 2 {
		t.Fatalf("tail over undecodable window: %d records, MaxSeq %d; want 0 records, MaxSeq 2",
			len(resp.Records), resp.MaxSeq)
	}
	// Re-pulling from the advanced cursor finds nothing left to scan —
	// the follower is past the poison, not stuck on it.
	resp, err = e.journalTail(resp.MaxSeq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 0 || resp.MaxSeq != 2 {
		t.Fatalf("tail past the window: %d records, MaxSeq %d; want 0 records, MaxSeq 2",
			len(resp.Records), resp.MaxSeq)
	}
}

// TestCloseTimeoutBounded proves a stuck job cannot hang shutdown: Close
// with a bound returns promptly while an uncancellable long job is still
// running, and the results computed before the timeout stay durable.
func TestCloseTimeoutBounded(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, JournalDir: dir})
	// A fast job first, so the journal provably holds something.
	fast := fig8Spec(SynthTwoLevel)
	if _, err := e.Run(context.Background(), []JobSpec{fast}); err != nil {
		t.Fatal(err)
	}
	// Then park the single worker on a huge Monte Carlo job. Cancel it
	// only after CloseTimeout returns, proving the bound doesn't depend
	// on the job finishing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := mcSpec(7)
	slow.Samples = 50_000_000
	if _, err := e.Submit(ctx, []JobSpec{slow}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		e.CloseTimeout(300 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("CloseTimeout hung behind a stuck job")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("CloseTimeout took %v, want prompt return after its 300ms bound", took)
	}
	cancel() // release the worker

	// The fast job survived the bounded shutdown.
	e2 := New(Options{Workers: 1, JournalDir: dir})
	defer e2.Close()
	res, err := e2.Run(context.Background(), []JobSpec{fast})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != "" || !res[0].CacheHit {
		t.Fatalf("pre-timeout result not durable: %+v", res[0])
	}
}

// TestJournalCompactionKeepsServing checks an engine-triggered compaction
// preserves replay: recompute-heavy histories shrink to one record per
// spec and a restart still answers from cache. The journal is the only
// durable state, so its retention limits decide what a restart restores:
// with JournalMaxRecords 1 exactly one result survives.
func TestJournalCompactionKeepsServing(t *testing.T) {
	specs := []JobSpec{mcSpec(1), mcSpec(2), mcSpec(3)}
	for _, tc := range []struct {
		maxRecords int
		want       int // records compaction keeps, and so a restart restores
	}{
		{0, len(specs)},
		{1, 1},
	} {
		opt := Options{Workers: 2, JournalDir: t.TempDir(), JournalCompactInterval: -1,
			JournalMaxRecords: tc.maxRecords}
		e := New(opt)
		if _, err := e.Run(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		ok, err := e.CompactJournal()
		if !ok || err != nil {
			t.Fatalf("CompactJournal: ok=%v err=%v", ok, err)
		}
		records, _ := e.journalStats()
		if records != tc.want {
			t.Fatalf("max records %d: journal holds %d records after compaction, want %d",
				tc.maxRecords, records, tc.want)
		}
		e.Close()

		e2 := New(opt)
		if got := e2.Stats().CacheEntries; got != tc.want {
			t.Fatalf("max records %d: restart restored %d results, want %d", tc.maxRecords, got, tc.want)
		}
		res, err := e2.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i, r := range res {
			if r.Err != "" {
				t.Fatalf("job %d: %s", i, r.Err)
			}
			if r.CacheHit {
				hits++
			}
		}
		if hits != tc.want {
			t.Fatalf("max records %d: %d jobs served from the compacted journal, want %d",
				tc.maxRecords, hits, tc.want)
		}
		e2.Close()
	}
}
