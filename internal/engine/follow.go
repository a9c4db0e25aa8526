package engine

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
)

// followWait is the long-poll window the follower asks the leader to hold
// a feed request open for; convergence latency is one commit, not one poll
// interval.
const followWait = 25 * time.Second

// followBatchLimit caps records pulled per feed request.
const followBatchLimit = 1024

// followLoop mirrors the cluster leader's journal into the local journal and
// result cache for the member's whole lifetime: startCluster runs it beside
// the election loop, and Close cancels ctx. It pulls
// GET /v1/journal/records from its cursor in the leader's sequence space.
// The cursor starts at zero on every boot and every change of leader, so a
// restart re-pulls the leader's history; applyWindow skips each record
// whose spec hash the local journal already holds, so the re-pull costs
// network only — no fsyncs, no local journal growth. While this member
// leads, the loop waits one election tick at a time.
func (e *Engine) followLoop(ctx context.Context) {
	c := e.cluster
	defer c.wg.Done()
	// Pull failures back off exponentially from one heartbeat up to one
	// lease, so the loop notices a new leader within a lease of its
	// election however long the old one was down; the jitter keeps a fleet
	// of followers orphaned by the same crash from hammering (and
	// re-synchronizing on) the next leader in lockstep.
	policy := cluster.Backoff{Base: c.heartbeat, Cap: c.lease}
	client := &http.Client{Timeout: followWait + 10*time.Second}
	var cursor uint64
	target := ""
	attempt := 0
	errLogged := false
	sleep := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	for ctx.Err() == nil {
		if t := c.followTarget(); t != target {
			if target != "" {
				slog.Info("follower re-aiming; cursor resets", "component", "follower", "from", target, "to", t)
			}
			target, cursor = t, 0
		}
		if target == "" {
			// Leading, or no leader known yet: nothing to pull and no pull
			// to back off, so look again after one election tick.
			e.met.replBackoff.Store(0)
			sleep(c.heartbeat)
			continue
		}
		resp, err := e.pullTail(ctx, client, target, cursor)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			e.met.replPullErrs.Inc()
			if !errLogged {
				slog.Warn("follower pull failed; backing off", "component", "follower", "peer", target, "cursor", cursor, "err", err, "backoff_base", policy.Base, "backoff_cap", policy.Cap)
				errLogged = true
			}
			d := policy.Delay(attempt, nil)
			attempt++
			e.met.replBackoff.Store(int64(d))
			sleep(d)
			continue
		}
		attempt = 0
		e.met.replBackoff.Store(0)
		if errLogged {
			slog.Info("follower peer reachable again", "component", "follower", "peer", target, "cursor", cursor)
			errLogged = false
		}
		c.noteContact()
		if resp.LastSeq < cursor {
			// The peer's sequence space regressed — its journal was
			// recreated (lost disk, fresh volume). Without a reset the
			// cursor points past everything the new journal will ever
			// hold and replication silently stops; re-pulling from zero
			// is safe because applyWindow skips records the local
			// journal already holds.
			slog.Warn("follower peer journal regressed; re-pulling from the start", "component", "follower", "peer", target, "last_seq", resp.LastSeq, "cursor", cursor)
			cursor = 0
			continue
		}
		cursor = e.applyWindow(resp.Records, cursor)
		e.met.replCursor.Set(int64(cursor))
		e.met.replLeader.Set(int64(resp.LastSeq))
		e.met.replLag.Set(int64(resp.LastSeq) - int64(cursor))
	}
}

// applyWindow installs one pulled window of the leader's journal records.
// Lease meta-records feed the election state. A job record is applied
// unless the local journal already holds its spec hash: a result is a
// function of its spec hash, timing fields apart, so holding the key means
// holding the result. Each applied record is decoded once, for the cache,
// and the newest record per key in the window wins (the winner compaction
// would pick). The leader's value bytes are appended through one
// AppendBatch — one group commit, one fsync — and, matching runTask's
// durable-before-published order, every cache insert happens after that
// commit returns. Returns the advanced cursor.
func (e *Engine) applyWindow(recs []TailRecord, cursor uint64) uint64 {
	var kvs []journal.KV
	var results []JobResult
	at := make(map[string]int, len(recs)) // key -> its index in kvs and results
	for _, rec := range recs {
		cursor = rec.Seq
		key, err := hex.DecodeString(rec.Key)
		if err != nil || len(key) == 0 {
			slog.Warn("follower skipping bad record key", "component", "follower", "key", rec.Key, "seq", rec.Seq)
			continue
		}
		if journal.IsMetaKey(key) {
			e.applyLease(rec.Value)
			continue
		}
		if e.journal.Has(key) {
			e.met.replSkipped.Inc()
			continue
		}
		var r JobResult
		if err := json.Unmarshal(rec.Value, &r); err != nil {
			// From a build whose results this one cannot read: journaled,
			// it would mark its spec hash applied and never serve.
			slog.Warn("follower skipping undecodable job record", "component", "follower", "key", rec.Key, "seq", rec.Seq, "err", err)
			continue
		}
		if i, ok := at[string(key)]; ok {
			kvs[i].Value, results[i] = rec.Value, canonicalResult(r)
			continue
		}
		at[string(key)] = len(kvs)
		kvs = append(kvs, journal.KV{Key: key, Value: rec.Value})
		results = append(results, canonicalResult(r))
	}
	if _, err := e.journal.AppendBatch(kvs); err != nil {
		// Durability lost, correctness kept: the in-memory results still
		// serve (same degradation as journalAppend on the leader path).
		slog.Error("follower journal batch append failed; serving from memory only", "component", "follower", "records", len(kvs), "err", err)
	}
	for i, r := range results {
		e.cache.Put(string(kvs[i].Key), r)
		e.met.replApplied.Inc()
	}
	return cursor
}

// applyLease handles one replicated lease meta-record: persist it locally
// (so a restart recovers the fleet's leadership view from its own disk)
// and fold the claim into the election state.
func (e *Engine) applyLease(value []byte) {
	var claim leaseClaim
	if err := json.Unmarshal(value, &claim); err != nil {
		slog.Warn("follower skipping bad lease record", "component", "follower", "err", err)
		return
	}
	e.cluster.journalLease(claim, value)
	e.cluster.observeLease(claim)
}

// pullTail performs one long-polling feed request against the peer.
func (e *Engine) pullTail(ctx context.Context, client *http.Client, peer string, cursor uint64) (TailResponse, error) {
	u := fmt.Sprintf("%s/v1/journal/records?after=%d&limit=%d&wait=%s",
		peer, cursor, followBatchLimit, url.QueryEscape(followWait.String()))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return TailResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return TailResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return TailResponse{}, fmt.Errorf("peer records feed: HTTP %d (a 404 means the peer has no open journal or predates /v1/journal/records)", resp.StatusCode)
	}
	var tr TailResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return TailResponse{}, fmt.Errorf("decoding peer records feed: %w", err)
	}
	return tr, nil
}
