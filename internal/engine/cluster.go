package engine

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
)

// DefaultLeaseDuration is the leader lease when Options.LeaseDuration is
// zero: a follower that has had no proof of leader life for this long
// starts an election.
const DefaultLeaseDuration = 3 * time.Second

// Cluster roles reported by ClusterState.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
	// RoleSingle is an engine outside any cluster — no cluster options, or
	// no open journal to be a member with: it is its own source of truth,
	// but does not participate in elections.
	RoleSingle = "single"
)

// ClusterState is the GET /v1/cluster/state payload: one member's view of
// the fleet. The gateway polls it to discover the current leader after a
// failover; candidates poll it during elections to compare replication
// progress and to spot an already-promoted peer.
type ClusterState struct {
	// Self is this member's advertised base URL (Options.ClusterSelf).
	Self string `json:"self"`
	// Role is RoleLeader, RoleFollower, or RoleSingle.
	Role string `json:"role"`
	// Epoch is the leadership epoch: bumped on every promotion, it fences
	// a deposed leader — any member observing a claim with a higher epoch
	// (or an equal epoch from a greater URL) yields to it.
	Epoch uint64 `json:"epoch"`
	// Leader is the member this node believes holds the lease.
	Leader string `json:"leader,omitempty"`
	// LastSeq is the local journal's newest committed sequence number.
	LastSeq uint64 `json:"last_seq"`
	// ReplCursor is the highest leader sequence number this member has
	// replicated (leader sequence space, so candidates are comparable:
	// the follower with the highest cursor lost the least).
	ReplCursor uint64 `json:"repl_cursor"`
	// LeaseAgeMS is how stale the lease is, in milliseconds: for a leader,
	// time since it last renewed; for a follower, time since the last proof
	// of leader life. A follower whose LeaseAgeMS exceeds the lease
	// duration is about to call an election.
	LeaseAgeMS int64 `json:"lease_age_ms"`
	// Peers lists the other members this node coordinates with.
	Peers []string `json:"peers,omitempty"`
}

// leaseClaim is the JSON payload of a lease meta-record (journal key
// journal.MetaKey(journal.LeaseKind)). The leader appends one at promotion
// and on every renewal; the record rides the replication feed, so followers
// both learn the claim and get a liveness heartbeat that wakes their
// long-poll, and a restarting member recovers the last known leadership
// from its own journal replay.
type leaseClaim struct {
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader"`
	Time   int64  `json:"time"` // unix ns, informational
}

// clusterNode runs one member's side of lease-based leader election. The
// design leans entirely on machinery the engine already has:
//
//   - The journal is the ballot box: leadership is asserted by appending a
//     lease meta-record, which replicates to followers through the ordinary
//     records feed. Every member has an open journal, and its directory
//     flock means at most one process can assert through it. The hash chain
//     guards each journal against torn or altered segments at recovery
//     only: nothing yet compares two members' histories (ROADMAP item 7,
//     the replication digest).
//   - The follower's feed pull doubles as the failure detector: every
//     successful pull (the leader answers, even empty) is proof of life.
//     The election loop ticks every LeaseDuration/3, and the leader renews
//     its lease on the first tick at least half a lease after the last
//     renewal. Each renewal is a journal commit that wakes followers'
//     long-polls, so a healthy leader is never silent for much longer than
//     two thirds of a lease.
//   - On lease expiry, and at boot when its journal holds no lease, a
//     member polls its peers' /v1/cluster/state: if a peer leads (same or
//     newer epoch), it adopts that leader; otherwise, if no reachable peer
//     has replicated further (ReplCursor, ties broken by the greater URL),
//     it promotes itself — bumps the epoch, appends a lease record, and
//     becomes the replication source. A deposed leader that comes back
//     observes the higher epoch on its next peer poll (or in a replicated
//     lease record) and demotes itself back to mirroring.
//
// The mirror loop runs for the member's whole lifetime beside the election
// loop and pulls only while the member follows.
type clusterNode struct {
	e         *Engine
	self      string
	peers     []string
	lease     time.Duration
	heartbeat time.Duration
	client    *http.Client

	mu          sync.Mutex
	epoch       uint64
	leader      string
	isLeader    bool
	lastContact time.Time // leader: last renewal; follower: last proof of leader life

	// leaseMu orders lease records in the journal (journalLease).
	leaseMu sync.Mutex

	cancel context.CancelFunc // stops the election and mirror loops
	wg     sync.WaitGroup
}

// startCluster wires the cluster node from Options (ClusterSelf is set and
// the journal is open) and any leadership state recovered from the journal
// replay, then starts the election and mirror loops.
func (e *Engine) startCluster() {
	lease := e.opt.LeaseDuration
	if lease <= 0 {
		lease = DefaultLeaseDuration
	}
	c := &clusterNode{
		e:           e,
		self:        e.opt.ClusterSelf,
		peers:       append([]string(nil), e.opt.ClusterPeers...),
		lease:       lease,
		heartbeat:   lease / 3,
		client:      &http.Client{Timeout: lease / 3},
		lastContact: time.Now(),
	}
	sort.Strings(c.peers)
	e.cluster = c
	e.met.reg.NewGaugeFunc("xbar_cluster_lease_age_seconds",
		"Lease staleness: since the last renewal (leader) or last proof of leader life (follower).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return time.Since(c.lastContact).Seconds()
		})
	e.met.reg.NewGaugeFunc("xbar_cluster_members",
		"Cluster members this node coordinates with, including itself.",
		func() float64 { return float64(len(c.peers) + 1) })
	if rl := e.recoveredLease; rl != nil {
		// The local journal knows who last held the lease. If that was us,
		// resume leading (a usurper with a higher epoch will depose us on
		// the first peer poll); otherwise mirror the recorded leader.
		c.epoch, c.leader, c.isLeader = rl.Epoch, rl.Leader, rl.Leader == c.self
		e.met.clusterEpoch.Set(int64(c.epoch))
		if c.isLeader {
			e.met.clusterIsLeader.Set(1)
			c.appendLease()
		}
	} else {
		// A fresh member is a follower that knows no leader, and it leads
		// only by winning an election. One round before it serves adopts a
		// live leader or, when no reachable peer leads or has replicated
		// further, promotes it: the first member up leads epoch 1. A boot
		// promotion is not a failover.
		c.elect(false)
	}
	// Nothing else runs on c until the mirror and election loops start.
	slog.Info("cluster member starting", "component", "cluster",
		"member", c.self, "role", c.role(), "epoch", c.epoch, "leader", c.leader, "lease", c.lease)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(2)
	go c.loop(ctx)
	go e.followLoop(ctx)
}

func (e *Engine) stopCluster() {
	if e.cluster == nil {
		return
	}
	e.cluster.cancel()
	e.cluster.wg.Wait()
}

// followTarget is the URL the mirror loop pulls from: the cluster's
// current view of the leader, which moves on failover. It is empty while
// this member leads or knows no leader.
func (c *clusterNode) followTarget() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isLeader {
		return ""
	}
	return c.leader
}

// ClusterState reports this member's view of the fleet (the
// GET /v1/cluster/state payload). An engine outside any cluster is
// RoleSingle.
func (e *Engine) ClusterState() ClusterState {
	_, lastSeq := e.journalStats()
	st := ClusterState{
		Self:       e.opt.ClusterSelf,
		Role:       RoleSingle,
		LastSeq:    lastSeq,
		ReplCursor: uint64(e.met.replCursor.Value()),
	}
	if e.cluster == nil {
		return st
	}
	c := e.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Role = c.role()
	st.Epoch = c.epoch
	st.Leader = c.leader
	st.LeaseAgeMS = time.Since(c.lastContact).Milliseconds()
	st.Peers = append([]string(nil), c.peers...)
	return st
}

func (c *clusterNode) role() string {
	if c.isLeader {
		return RoleLeader
	}
	return RoleFollower
}

// noteContact records proof of leader life (the mirror loop calls it after
// every successful feed pull).
func (c *clusterNode) noteContact() {
	c.mu.Lock()
	if !c.isLeader {
		c.lastContact = time.Now()
	}
	c.mu.Unlock()
}

// LeaseOutranks reports whether the leadership claim (epoch, leader)
// outranks the claim (curEpoch, curLeader): a higher epoch wins, and at an
// equal epoch the greater leader URL wins. It is the fence every member
// applies to lease claims and the order by which the gateway names the
// fleet's leader.
func LeaseOutranks(epoch uint64, leader string, curEpoch uint64, curLeader string) bool {
	return epoch > curEpoch || (epoch == curEpoch && leader > curLeader)
}

// observeLease folds one lease claim — replicated, recovered, or polled —
// into the node's view. A claim that outranks ours moves the lease: a
// leader observing it demotes itself (the fencing path), a follower's
// mirror loop re-aims at the new leader.
func (c *clusterNode) observeLease(claim leaseClaim) {
	if claim.Leader == "" {
		return
	}
	c.mu.Lock()
	if !LeaseOutranks(claim.Epoch, claim.Leader, c.epoch, c.leader) {
		if claim.Epoch == c.epoch && claim.Leader == c.leader && !c.isLeader {
			c.lastContact = time.Now() // renewal from the current leader
		}
		c.mu.Unlock()
		return
	}
	wasLeader := c.isLeader
	c.epoch = claim.Epoch
	c.leader = claim.Leader
	c.isLeader = claim.Leader == c.self
	c.lastContact = time.Now()
	c.mu.Unlock()
	c.e.met.clusterEpoch.Set(int64(claim.Epoch))
	if wasLeader && !c.isLeader {
		slog.Warn("deposed; demoting to follower", "component", "cluster", "member", c.self, "leader", claim.Leader, "epoch", claim.Epoch)
		c.e.met.clusterIsLeader.Set(0)
		c.e.met.clusterDemotions.Inc()
	}
}

func (c *clusterNode) loop(ctx context.Context) {
	defer c.wg.Done()
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.tick()
		case <-ctx.Done():
			return
		}
	}
}

func (c *clusterNode) tick() {
	c.mu.Lock()
	isLeader := c.isLeader
	stale := time.Since(c.lastContact)
	c.mu.Unlock()
	if isLeader {
		if stale >= c.lease/2 {
			c.appendLease()
		}
		// Poll peers for a higher claim: a deposed leader must discover its
		// usurper even if it lost the replication feed entirely.
		for _, st := range c.pollPeers() {
			if st.Role == RoleLeader {
				c.observeLease(leaseClaim{Epoch: st.Epoch, Leader: st.Self})
			}
		}
		return
	}
	if stale > c.lease {
		c.elect(true)
	}
}

// elect runs one election round: at boot for a member with no recorded
// lease, and after the lease expired (failover). The round either adopts a
// live leader, promotes this node (no reachable peer has replicated
// further), or defers to a better-positioned candidate — in which case the
// lease stays expired and the next tick re-runs the round, so a better
// candidate that then dies too doesn't wedge the fleet.
func (c *clusterNode) elect(failover bool) {
	states := c.pollPeers()
	c.mu.Lock()
	myEpoch, myLeader := c.epoch, c.leader
	c.mu.Unlock()
	// Every state is checked for a live leader before any peer is deferred
	// to: a candidate that deferred to a better-replicated follower first
	// would never adopt the leader that follower mirrors.
	for _, st := range states {
		if st.Role == RoleLeader && st.Epoch >= myEpoch {
			// A live leader claim at our epoch or newer — including the
			// current leader turning out to be reachable after all (we lost
			// its feed, not its life). observeLease adopts it or, for the
			// incumbent, just resets the lease clock.
			if st.Self != myLeader {
				slog.Info("election found a live leader; adopting", "component", "cluster", "member", c.self, "leader", st.Self, "epoch", st.Epoch)
			}
			c.observeLease(leaseClaim{Epoch: st.Epoch, Leader: st.Self})
			return
		}
	}
	cursor := uint64(c.e.met.replCursor.Value())
	for _, st := range states {
		if st.Epoch > myEpoch {
			myEpoch = st.Epoch // never claim with a stale epoch
		}
		if st.ReplCursor > cursor || (st.ReplCursor == cursor && st.Self > c.self) {
			slog.Info("deferring election to better-replicated peer", "component", "cluster",
				"member", c.self, "peer", st.Self, "peer_cursor", st.ReplCursor, "cursor", cursor)
			return
		}
	}
	c.promote(myEpoch+1, failover)
}

// promote makes this node the leader of epoch: flip to the replication
// source (the mirror loop stops pulling) and assert the claim with a
// durable lease record that replicates to the rest of the fleet. A
// failover is counted before the role flips, so no reader sees the new
// leader without it.
func (c *clusterNode) promote(epoch uint64, failover bool) {
	if failover {
		c.e.met.clusterFailovers.Inc()
	}
	c.mu.Lock()
	c.epoch = epoch
	c.leader = c.self
	c.isLeader = true
	c.lastContact = time.Now()
	c.mu.Unlock()
	c.e.met.clusterEpoch.Set(int64(epoch))
	c.e.met.clusterIsLeader.Set(1)
	slog.Warn("promoting to leader", "component", "cluster",
		"member", c.self, "epoch", epoch, "cursor", c.e.met.replCursor.Value())
	c.appendLease()
}

// appendLease durably asserts (or renews) this node's leadership in the
// journal. The commit wakes followers' long-polling feed pulls, so one
// append is both the ballot and the heartbeat.
func (c *clusterNode) appendLease() {
	c.mu.Lock()
	claim := leaseClaim{Epoch: c.epoch, Leader: c.self, Time: time.Now().UnixNano()}
	c.lastContact = time.Now()
	c.mu.Unlock()
	data, err := json.Marshal(claim)
	if err != nil {
		slog.Error("failed to encode lease", "component", "cluster", "member", c.self, "epoch", claim.Epoch, "err", err)
		return
	}
	c.journalLease(claim, data)
}

// journalLease appends one lease record, claim encoded as value, unless
// this node has observed a claim that outranks it. leaseMu spans the check
// and the append, so lease records enter the journal in fence order: a
// window pulled from a deposed leader cannot journal its claim after this
// node's promotion, and a re-pulled history does not journal stale claims.
// Replay, which recovers the last lease record, and compaction, which keeps
// it, therefore see the newest claim the node knew.
func (c *clusterNode) journalLease(claim leaseClaim, value []byte) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	c.mu.Lock()
	stale := LeaseOutranks(c.epoch, c.leader, claim.Epoch, claim.Leader)
	c.mu.Unlock()
	if stale {
		return
	}
	if _, err := c.e.journal.Append(journal.MetaKey(journal.LeaseKind), value); err != nil {
		slog.Error("failed to append lease record", "component", "cluster", "member", c.self, "epoch", claim.Epoch, "err", err)
	}
}

// pollPeers fetches every reachable peer's cluster state concurrently;
// unreachable peers are simply absent from the result.
func (c *clusterNode) pollPeers() []ClusterState {
	out := make([]*ClusterState, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.heartbeat)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cluster/state", nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var st ClusterState
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				return
			}
			if st.Self == "" {
				st.Self = peer
			}
			out[i] = &st
		}(i, p)
	}
	wg.Wait()
	states := make([]ClusterState, 0, len(out))
	for _, st := range out {
		if st != nil {
			states = append(states, *st)
		}
	}
	return states
}
