package engine

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// member is one in-process cluster member: an engine plus a real HTTP
// server on a pre-allocated port (the URL must exist before the engine,
// because every member's Options list the others' URLs).
type member struct {
	url string
	ln  net.Listener
	eng *Engine
	srv *http.Server
}

func newMemberListener(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A member that never serves keeps its listener until the test ends,
	// so no other test can take its URL.
	t.Cleanup(func() { ln.Close() })
	return ln, "http://" + ln.Addr().String()
}

func (m *member) serve() {
	m.srv = &http.Server{Handler: NewHTTPHandler(m.eng)}
	go m.srv.Serve(m.ln)
}

// kill abruptly stops the member's HTTP server (in-flight connections
// dropped), leaving the engine running: from the fleet's point of view
// this is indistinguishable from the process freezing or the host
// vanishing, which is exactly what elections react to.
func (m *member) kill() { m.srv.Close() }

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const testLease = 400 * time.Millisecond

func clusterOpts(self string, peers []string, dir string) Options {
	return Options{
		Workers:       2,
		JournalDir:    dir,
		ClusterSelf:   self,
		ClusterPeers:  peers,
		LeaseDuration: testLease,
	}
}

// TestClusterFailover is the engine-level failover check: the first member
// up leads and the second adopts it at boot; kill the leader, assert the
// follower promotes itself via the journal lease within the lease window,
// bumps the epoch, counts one failover, and serves the leader's results
// bit-identically from its mirrored cache.
func TestClusterFailover(t *testing.T) {
	lnA, urlA := newMemberListener(t)
	lnB, urlB := newMemberListener(t)
	dirA, dirB := t.TempDir(), t.TempDir()

	a := &member{url: urlA, ln: lnA}
	a.eng = New(clusterOpts(urlA, []string{urlB}, dirA))
	defer a.eng.Close()
	a.serve()
	defer a.srv.Close()

	b := &member{url: urlB, ln: lnB}
	b.eng = New(clusterOpts(urlB, []string{urlA}, dirB))
	defer b.eng.Close()
	b.serve()
	defer b.srv.Close()

	if st := a.eng.ClusterState(); st.Role != RoleLeader || st.Epoch != 1 {
		t.Fatalf("A started as %s epoch %d, want leader epoch 1", st.Role, st.Epoch)
	}
	if st := b.eng.ClusterState(); st.Role != RoleFollower || st.Leader != urlA {
		t.Fatalf("B started as %s of %q, want follower of A", st.Role, st.Leader)
	}

	specs := batch64()
	first, err := a.eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B to mirror the batch", 15*time.Second, func() bool {
		return b.eng.Stats().CacheEntries >= len(specs)
	})
	// B's election state must have seen A's lease through the feed.
	waitFor(t, "B to observe A's lease", 5*time.Second, func() bool {
		return b.eng.ClusterState().Epoch >= 1
	})

	a.kill()
	waitFor(t, "B to promote itself", 10*time.Second, func() bool {
		return b.eng.ClusterState().Role == RoleLeader
	})
	st := b.eng.ClusterState()
	if st.Epoch < 2 {
		t.Fatalf("promotion did not bump the epoch: %d", st.Epoch)
	}
	if st.Leader != urlB {
		t.Fatalf("promoted member reports leader %q, want itself", st.Leader)
	}
	if n := b.eng.met.clusterFailovers.Value(); n != 1 {
		t.Fatalf("promoted member counts %d failovers, want 1", n)
	}

	// Every result acknowledged by the dead leader is served by the new
	// one, bit-identical, from the mirrored cache.
	res, err := b.eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != "" || !r.CacheHit {
			t.Fatalf("post-failover job %d not from mirrored cache: %+v", i, r)
		}
		if !samePayload(first[i], r) {
			t.Fatalf("post-failover job %d diverged:\n  old leader %+v\n  new leader %+v", i, first[i], r)
		}
	}

	// The new leader's lease is durable: restarted on the same journal, it
	// resumes leading at the recovered epoch without an election.
	b.eng.Close()
	b2 := New(clusterOpts(urlB, []string{urlA}, dirB))
	defer b2.Close()
	st2 := b2.ClusterState()
	if st2.Role != RoleLeader || st2.Epoch < st.Epoch {
		t.Fatalf("restarted member recovered role %s epoch %d, want leader epoch >= %d", st2.Role, st2.Epoch, st.Epoch)
	}
}

// TestClusterDemotionResolvesSplitBrain: two members that both boot
// believing they lead epoch 1 must converge to one leader — the greater URL
// wins the tie, the other demotes and mirrors it. Fresh members elect
// before they serve, so the split brain comes from recovered leases: each
// member first boots alone, leads epoch 1 and records it, and both restart
// on those journals together.
func TestClusterDemotionResolvesSplitBrain(t *testing.T) {
	lnA, urlA := newMemberListener(t)
	lnB, urlB := newMemberListener(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	winner, loser := urlA, urlB
	if urlB > urlA {
		winner, loser = urlB, urlA
	}
	for _, m := range []struct{ self, peer, dir string }{{urlA, urlB, dirA}, {urlB, urlA, dirB}} {
		e := New(clusterOpts(m.self, []string{m.peer}, m.dir))
		if st := e.ClusterState(); st.Role != RoleLeader || st.Epoch != 1 {
			t.Fatalf("%s booting alone is %s at epoch %d, want leader at epoch 1", m.self, st.Role, st.Epoch)
		}
		e.Close()
	}

	a := &member{url: urlA, ln: lnA}
	a.eng = New(clusterOpts(urlA, []string{urlB}, dirA))
	defer a.eng.Close()
	a.serve()
	defer a.srv.Close()
	b := &member{url: urlB, ln: lnB}
	b.eng = New(clusterOpts(urlB, []string{urlA}, dirB))
	defer b.eng.Close()
	b.serve()
	defer b.srv.Close()
	if sa, sb := a.eng.ClusterState(), b.eng.ClusterState(); sa.Role != RoleLeader || sb.Role != RoleLeader {
		t.Fatalf("restarted members are %s and %s, want both leading their recovered epoch", sa.Role, sb.Role)
	}

	engOf := map[string]*Engine{urlA: a.eng, urlB: b.eng}
	waitFor(t, "split brain to resolve", 10*time.Second, func() bool {
		w, l := engOf[winner].ClusterState(), engOf[loser].ClusterState()
		return w.Role == RoleLeader && l.Role == RoleFollower && l.Leader == winner
	})
	// The loser keeps mirroring the winner afterwards: a result computed on
	// the winner shows up in the loser's cache.
	if _, err := engOf[winner].Run(context.Background(), []JobSpec{mcSpec(77)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "demoted member to mirror the winner", 10*time.Second, func() bool {
		return engOf[loser].Stats().Replicated >= 1
	})
}

// TestFreshMemberFollowsLiveLeader: a member that joins with an empty
// journal elects before it serves, so it adopts the live leader — even
// with the greater URL, whose epoch-1 claim would depose it — and the
// leader keeps epoch 1. Neither boot counts as a failover.
func TestFreshMemberFollowsLiveLeader(t *testing.T) {
	lnA, urlA := newMemberListener(t)
	lnB, urlB := newMemberListener(t)
	if urlA > urlB {
		lnA, urlA, lnB, urlB = lnB, urlB, lnA, urlA
	}
	a := &member{url: urlA, ln: lnA}
	a.eng = New(clusterOpts(urlA, []string{urlB}, t.TempDir()))
	defer a.eng.Close()
	a.serve()
	defer a.srv.Close()
	if st := a.eng.ClusterState(); st.Role != RoleLeader || st.Epoch != 1 {
		t.Fatalf("A booted as %s at epoch %d, want leader at epoch 1", st.Role, st.Epoch)
	}

	b := &member{url: urlB, ln: lnB}
	b.eng = New(clusterOpts(urlB, []string{urlA}, t.TempDir()))
	defer b.eng.Close()
	b.serve()
	defer b.srv.Close()
	for end := time.Now().Add(3 * testLease); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		sa, sb := a.eng.ClusterState(), b.eng.ClusterState()
		if sa.Role != RoleLeader || sa.Epoch != 1 {
			t.Fatalf("A is %s at epoch %d after B joined, want leader at epoch 1", sa.Role, sa.Epoch)
		}
		if sb.Role != RoleFollower || sb.Leader != urlA || sb.Epoch != 1 {
			t.Fatalf("joiner is %s of %q at epoch %d, want follower of A at epoch 1", sb.Role, sb.Leader, sb.Epoch)
		}
	}
	for _, e := range []*Engine{a.eng, b.eng} {
		if n := e.met.clusterFailovers.Value(); n != 0 {
			t.Fatalf("%s counts %d failovers after a boot, want 0", e.opt.ClusterSelf, n)
		}
	}
}

// TestFreshMembersBootInTurn boots three fresh members one after another
// while sampling every started member's ClusterState: no epoch may ever
// have two leaders, and the fleet settles on the first member at epoch 1.
func TestFreshMembersBootInTurn(t *testing.T) {
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		lns[i], urls[i] = newMemberListener(t)
	}
	var (
		mu      sync.Mutex
		started []*Engine
		leaders = map[uint64]string{} // epoch -> the member seen leading it
		clash   string
	)
	sample := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range started {
			st := e.ClusterState()
			if st.Role != RoleLeader {
				continue
			}
			if prev, ok := leaders[st.Epoch]; ok && prev != st.Self && clash == "" {
				clash = fmt.Sprintf("epoch %d led by both %s and %s", st.Epoch, prev, st.Self)
			}
			leaders[st.Epoch] = st.Self
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				sample()
			}
		}
	}()
	var once sync.Once
	stopSampling := func() { once.Do(func() { close(stop); <-done }) }
	defer stopSampling()

	for i, self := range urls {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		m := &member{url: self, ln: lns[i]}
		m.eng = New(clusterOpts(self, peers, t.TempDir()))
		m.serve()
		t.Cleanup(func() { m.srv.Close(); m.eng.Close() })
		mu.Lock()
		started = append(started, m.eng)
		mu.Unlock()
	}
	time.Sleep(3 * testLease)
	stopSampling()
	sample()

	if clash != "" {
		t.Fatal(clash)
	}
	if len(leaders) != 1 || leaders[1] != urls[0] {
		t.Fatalf("leaders by epoch = %v, want only the first member at epoch 1", leaders)
	}
	for i, e := range started {
		if st := e.ClusterState(); i > 0 && (st.Role != RoleFollower || st.Leader != urls[0] || st.Epoch != 1) {
			t.Fatalf("member %d is %s of %q at epoch %d, want follower of the first member at epoch 1", i, st.Role, st.Leader, st.Epoch)
		}
	}
}

// TestPullBackoffGaugeReadsSeconds: at a 1 s lease the follower's pull
// backoff is a fraction of a second, and the gauge must show it. Stop the
// leader: while the follower's pulls fail, a scrape reads a backoff in
// (0, 1]; serve the leader again, and once a pull succeeds it reads 0.
func TestPullBackoffGaugeReadsSeconds(t *testing.T) {
	lnA, urlA := newMemberListener(t)
	lnB, urlB := newMemberListener(t)
	opts := func(self, peer string) Options {
		o := clusterOpts(self, []string{peer}, t.TempDir())
		o.LeaseDuration = time.Second
		return o
	}
	a := &member{url: urlA, ln: lnA}
	a.eng = New(opts(urlA, urlB))
	defer a.eng.Close()
	a.serve()
	defer func() { a.srv.Close() }() // a.srv is replaced below

	b := &member{url: urlB, ln: lnB}
	b.eng = New(opts(urlB, urlA))
	defer b.eng.Close()
	b.serve()
	defer b.srv.Close()
	if st := b.eng.ClusterState(); st.Role != RoleFollower || st.Leader != urlA {
		t.Fatalf("B started as %s of %q, want follower of A", st.Role, st.Leader)
	}

	backoff := func() float64 {
		return metricValue(t, scrapeMetrics(t, urlB), "xbar_replication_pull_backoff_seconds")
	}
	if v := backoff(); v != 0 {
		t.Fatalf("backoff reads %v s while A is healthy, want 0", v)
	}

	a.kill()
	var v float64
	waitFor(t, "a failed pull to back off", 5*time.Second, func() bool {
		v = backoff()
		return v > 0
	})
	if v > 1 {
		t.Fatalf("backoff reads %v s, want at most the 1 s lease", v)
	}

	// Serve A again on its address well before B's lease runs out.
	ln, err := net.Listen("tcp", lnA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a.ln = ln
	a.serve()
	waitFor(t, "a successful pull to clear the backoff", 5*time.Second, func() bool {
		return backoff() == 0
	})
	if st := b.eng.ClusterState(); st.Role != RoleFollower || st.Leader != urlA {
		t.Fatalf("B is %s of %q after A came back, want follower of A", st.Role, st.Leader)
	}
}

// TestClusterMemberNeedsJournal: the journal is the ballot box and the
// replication feed, so a member without an open journal — no JournalDir,
// or caching disabled, which leaves the journal unopened — runs single
// rather than lead a fleet it could serve no feed to.
func TestClusterMemberNeedsJournal(t *testing.T) {
	_, self := newMemberListener(t)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"no JournalDir", clusterOpts(self, nil, "")},
		{"CacheSize < 0", func() Options {
			o := clusterOpts(self, nil, t.TempDir())
			o.CacheSize = -1
			return o
		}()},
	} {
		e := New(tc.opt)
		st := e.ClusterState()
		e.Close()
		if st.Role != RoleSingle || st.Epoch != 0 {
			t.Fatalf("%s: member is %s at epoch %d, want %s at epoch 0", tc.name, st.Role, st.Epoch, RoleSingle)
		}
	}
}

// TestStaleLeaseNotJournaled: a replicated lease claim that the member's
// view outranks — from a re-pulled history, or from a window a deposed
// leader answered after this member moved on — is not journaled, so a
// restart recovers the newest claim the member knew, not the last one it
// pulled.
func TestStaleLeaseNotJournaled(t *testing.T) {
	_, self := newMemberListener(t)
	dir := t.TempDir()
	window := func(epoch uint64, leader string) []TailRecord {
		v, err := json.Marshal(leaseClaim{Epoch: epoch, Leader: leader})
		if err != nil {
			t.Fatal(err)
		}
		return []TailRecord{{Seq: 1, Key: hex.EncodeToString(journal.MetaKey(journal.LeaseKind)), Value: v}}
	}
	const usurper = "http://127.0.0.1:1" // refuses connections: no name lookup
	e := New(clusterOpts(self, nil, dir))
	if st := e.ClusterState(); st.Role != RoleLeader || st.Epoch != 1 {
		t.Fatalf("lone member is %s at epoch %d, want leader at epoch 1", st.Role, st.Epoch)
	}
	e.applyWindow(window(2, usurper), 0) // deposes the member
	e.applyWindow(window(1, self), 0)    // its own old claim, pulled late
	e.Close()

	e = New(clusterOpts(self, nil, dir))
	defer e.Close()
	if st := e.ClusterState(); st.Role != RoleFollower || st.Leader != usurper || st.Epoch != 2 {
		t.Fatalf("restarted member is %s of %q at epoch %d, want follower of %q at epoch 2", st.Role, st.Leader, st.Epoch, usurper)
	}
}

// TestLeaseOutranks pins the one leadership order that members fence on
// and the gateway names the fleet's leader by.
func TestLeaseOutranks(t *testing.T) {
	for _, tc := range []struct {
		name           string
		epoch          uint64
		leader         string
		curEpoch       uint64
		curLeader      string
		outranks, back bool // claim over current, current over claim
	}{
		{"higher epoch wins", 3, "http://a:1", 2, "http://b:1", true, false},
		{"equal epoch, greater URL wins", 2, "http://b:1", 2, "http://a:1", true, false},
		{"equal claims", 2, "http://a:1", 2, "http://a:1", false, false},
	} {
		if got := LeaseOutranks(tc.epoch, tc.leader, tc.curEpoch, tc.curLeader); got != tc.outranks {
			t.Errorf("%s: LeaseOutranks(%d, %q, %d, %q) = %v, want %v", tc.name, tc.epoch, tc.leader, tc.curEpoch, tc.curLeader, got, tc.outranks)
		}
		if got := LeaseOutranks(tc.curEpoch, tc.curLeader, tc.epoch, tc.leader); got != tc.back {
			t.Errorf("%s, reversed: LeaseOutranks(%d, %q, %d, %q) = %v, want %v", tc.name, tc.curEpoch, tc.curLeader, tc.epoch, tc.leader, got, tc.back)
		}
	}
}

func TestClusterStateAndReadyzEndpoints(t *testing.T) {
	e := New(Options{Workers: 1, JournalDir: t.TempDir()})
	h := NewHTTPHandler(e)

	get := func(path string) (*httptest.ResponseRecorder, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return rec, body
	}

	rec, body := get("/v1/cluster/state")
	if rec.Code != http.StatusOK || body["role"] != RoleSingle {
		t.Fatalf("unclustered state = %d %v, want 200 role %q", rec.Code, body, RoleSingle)
	}
	if rec, body = get("/readyz"); rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("readyz on live engine = %d %v", rec.Code, body)
	}
	if rec, body = get("/healthz"); rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz on live engine = %d %v", rec.Code, body)
	}

	e.Close()
	// Draining/closed: liveness stays green, readiness goes red.
	if rec, body = get("/readyz"); rec.Code != http.StatusServiceUnavailable || body["status"] != "unready" {
		t.Fatalf("readyz on closed engine = %d %v, want 503 unready", rec.Code, body)
	}
	if rec, _ = get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz on closed engine = %d, want 200 (liveness, not readiness)", rec.Code)
	}
}
