package gateway

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// clusterMember is one full xbarserver: an engine with journal + cluster
// election behind a real HTTP listener whose URL is known before the
// engine starts (members name each other by URL in Options).
type clusterMember struct {
	url string
	ln  net.Listener
	eng *engine.Engine
	srv *http.Server
}

func newClusterListener(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

func (m *clusterMember) serve() {
	m.srv = &http.Server{Handler: engine.NewHTTPHandler(m.eng)}
	go m.srv.Serve(m.ln)
}

// kill drops the member's listener and connections without touching the
// engine — the fleet-visible signature of a crashed process.
func (m *clusterMember) kill() { m.srv.Close() }

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

func clusterEngineOpts(self string, peers []string, dir string) engine.Options {
	return engine.Options{
		Workers:       2,
		JournalDir:    dir,
		ClusterSelf:   self,
		ClusterPeers:  peers,
		LeaseDuration: 400 * time.Millisecond,
	}
}

// TestGatewayLeaderFailover is the PR's end-to-end acceptance check: a
// three-member cluster behind the gateway computes a 64-job batch; the
// leader is killed; a follower promotes itself within the lease window;
// the gateway ejects the dead member and reroutes; and re-submitting the
// same batch — bounded by the retry budget, no hangs — serves every
// acknowledged result bit-identically from the survivors' mirrored
// caches, recomputing nothing.
func TestGatewayLeaderFailover(t *testing.T) {
	lnA, urlA := newClusterListener(t)
	lnB, urlB := newClusterListener(t)
	lnC, urlC := newClusterListener(t)

	a := &clusterMember{url: urlA, ln: lnA}
	a.eng = engine.New(clusterEngineOpts(urlA, []string{urlB, urlC}, t.TempDir()))
	defer a.eng.Close()
	a.serve()
	defer a.srv.Close()

	// B and C boot after A serves, so each adopts A in its boot election.
	boot := func(self string, ln net.Listener, peers []string) *clusterMember {
		m := &clusterMember{url: self, ln: ln}
		m.eng = engine.New(clusterEngineOpts(self, peers, t.TempDir()))
		m.serve()
		return m
	}
	b := boot(urlB, lnB, []string{urlA, urlC})
	defer b.eng.Close()
	defer b.srv.Close()
	c := boot(urlC, lnC, []string{urlA, urlB})
	defer c.eng.Close()
	defer c.srv.Close()

	if st := a.eng.ClusterState(); st.Role != engine.RoleLeader {
		t.Fatalf("A boots as %s, want leader", st.Role)
	}
	for _, m := range []*clusterMember{b, c} {
		if st := m.eng.ClusterState(); st.Role != engine.RoleFollower || st.Leader != urlA {
			t.Fatalf("%s boots as %s of %q, want follower of A", m.url, st.Role, st.Leader)
		}
	}

	g := testGateway(t, []string{urlA, urlB, urlC}, func(o *Options) {
		o.Health = cluster.HealthOptions{Interval: 50 * time.Millisecond, FailThreshold: 2}
		o.RetryBudget = 10 * time.Second
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	jobs := specs(64)
	owners := shardSplit(t, g, jobs)
	ownedBy := func(member string) int {
		n := 0
		for _, o := range owners {
			if o == member {
				n++
			}
		}
		return n
	}

	rec, first := submit(t, g.Handler(), jobs)
	if rec.Code != http.StatusAccepted || len(first.Errors) != 0 {
		t.Fatalf("baseline submit = %d %+v", rec.Code, first.Errors)
	}
	baseline := pollAll(t, gw.URL, first.JobIDs)

	// Every follower mirrors the leader's journal before the kill: its
	// cache must hold its own shard plus the leader's.
	wantB, wantC := ownedBy(urlB)+ownedBy(urlA), ownedBy(urlC)+ownedBy(urlA)
	waitFor(t, "followers to mirror the leader's results", 20*time.Second, func() bool {
		return b.eng.Stats().CacheEntries >= wantB && c.eng.Stats().CacheEntries >= wantC
	})

	a.kill()

	// The fleet elects a survivor within a few lease windows, and the
	// gateway's aggregated cluster view converges on it.
	var newLeader string
	waitFor(t, "a follower to promote itself", 10*time.Second, func() bool {
		resp, err := http.Get(gw.URL + "/v1/cluster/state")
		if err != nil {
			return false
		}
		var st fleetState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.Epoch < 2 || st.Leader == "" || st.Leader == urlA {
			return false
		}
		newLeader = st.Leader
		return true
	})
	if newLeader != urlB && newLeader != urlC {
		t.Fatalf("promoted leader %q is not a surviving member", newLeader)
	}
	// Wait for the health checker to eject the dead member so routing is
	// deterministic (before ejection, requests still succeed via
	// per-request exclusion — just with visible retries).
	waitFor(t, "the gateway to eject the dead member", 5*time.Second, func() bool {
		return !g.health.Healthy(urlA)
	})

	// Re-submit the whole batch through the gateway: the dead member's
	// shard reroutes to survivors, completes within the retry budget, and
	// every acknowledged result comes back bit-identical from a mirrored
	// cache — nothing is lost, nothing recomputed.
	start := time.Now()
	rec, second := submit(t, g.Handler(), jobs)
	if rec.Code != http.StatusAccepted || len(second.Errors) != 0 {
		t.Fatalf("post-failover submit = %d %+v: %s", rec.Code, second.Errors, rec.Body)
	}
	if d := time.Since(start); d > g.opt.RetryBudget {
		t.Fatalf("post-failover submit took %v, beyond the %v retry budget", d, g.opt.RetryBudget)
	}
	results := pollAll(t, gw.URL, second.JobIDs)
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("post-failover job %d failed: %s", i, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("post-failover job %d (owner %s) was recomputed, want it served from a mirrored cache", i, owners[i])
		}
		if !samePayload(baseline[i], r) {
			t.Fatalf("post-failover job %d diverged:\n  before %+v\n  after  %+v", i, baseline[i], r)
		}
	}
	tokA := memberToken(urlA)
	for i, id := range second.JobIDs {
		if len(id) >= len(tokA) && id[:len(tokA)] == tokA {
			t.Fatalf("post-failover job %d still placed on the dead member: %s", i, id)
		}
	}
}
