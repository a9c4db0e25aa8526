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
// a tail request open for; convergence latency is one commit, not one
// poll interval.
const followWait = 25 * time.Second

// followBatchLimit caps records pulled per tail request.
const followBatchLimit = 1024

// startFollower begins continuously mirroring the cluster leader's journal
// into the local result cache (and local journal, when configured). The
// follower pulls GET /v1/journal/tail from its last applied sequence. A
// restart re-pulls the peer's history from cursor zero (the peer's
// sequence numbers are not ours), but records the local journal already
// restored are recognized in applyWindow and skipped, so the re-pull costs
// network only — no duplicate fsyncs, no local journal growth. A member
// without a result cache has nowhere to mirror into and never follows.
func (e *Engine) startFollower() {
	if e.followCancel != nil || e.cache == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.followCancel = cancel
	e.followWG.Add(1)
	go e.followLoop(ctx)
}

func (e *Engine) followLoop(ctx context.Context) {
	defer e.followWG.Done()
	// A member that stops mirroring (it was promoted) has no pull to back
	// off.
	defer e.met.replBackoff.Store(0)
	c := e.cluster
	// Pull failures back off exponentially from one heartbeat up to one
	// lease, so the loop notices a new leader within a lease of its
	// election however long the old one was down; the jitter keeps a fleet
	// of followers orphaned by the same crash from hammering (and
	// re-synchronizing on) the next leader in lockstep.
	policy := cluster.Backoff{Base: c.heartbeat, Cap: c.lease}
	client := &http.Client{Timeout: followWait + 10*time.Second}
	var cursor uint64
	// A local journal already holds everything mirrored before the last
	// restart; the leader's sequence numbers are not ours, though, so the
	// cursor always starts at zero and convergence relies on idempotent
	// replays (identical spec hash -> identical result). The cursor is also
	// per-leader: when a failover moves the target, the new leader's
	// sequence space starts over.
	target := ""
	attempt := 0
	errLogged := false
	backoff := func() {
		d := policy.Delay(attempt, nil)
		attempt++
		e.met.replBackoff.Store(int64(d))
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	for {
		if ctx.Err() != nil {
			return
		}
		if t := c.followTarget(); t != target {
			if target != "" {
				slog.Info("follower re-aiming; cursor resets", "component", "follower", "from", target, "to", t)
			}
			target, cursor = t, 0
		}
		if target == "" {
			// Leading (a promotion racing this loop's stop) or no leader
			// known yet: nothing to mirror; check again after a pause.
			backoff()
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
			backoff()
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
			// cache already holds verbatim.
			slog.Warn("follower peer journal regressed; re-pulling from the start", "component", "follower", "peer", target, "last_seq", resp.LastSeq, "cursor", cursor)
			cursor = 0
			continue
		}
		cursor = e.applyWindow(resp.Records, cursor)
		// MaxSeq covers records the leader scanned but skipped as
		// undecodable; advancing past them keeps the follower converging
		// instead of re-pulling the same window forever. An empty response
		// (long poll timed out, MaxSeq == cursor) just loops back into the
		// next wait.
		if resp.MaxSeq > cursor {
			cursor = resp.MaxSeq
		}
		e.met.replCursor.Set(int64(cursor))
		e.met.replLeader.Set(int64(resp.LastSeq))
		e.met.replLag.Set(int64(resp.LastSeq) - int64(cursor))
	}
}

// applyWindow installs one pulled tail window: lease meta-records feed the
// election state, job records land in the local journal and cache keeping
// only the newest record per key (the same winner compaction would pick).
// The whole window's journal writes go through one AppendBatch — one group
// commit, one fsync — and, matching runTask's durable-before-published
// order, every cache insert happens after that commit returns. Returns the
// advanced cursor.
func (e *Engine) applyWindow(recs []TailRecord, cursor uint64) uint64 {
	latest := make(map[string]JobResult, len(recs))
	for _, rec := range recs {
		key, derr := hex.DecodeString(rec.Key)
		switch {
		case derr != nil || len(key) == 0:
			slog.Warn("follower skipping bad record key", "component", "follower", "key", rec.Key, "seq", rec.Seq)
		case journal.IsMetaKey(key):
			e.applyLease(key, rec.Meta)
		default:
			latest[string(key)] = rec.Result
		}
		cursor = rec.Seq
	}
	type insert struct {
		key string
		r   JobResult
	}
	kvs := make([]journal.KV, 0, len(latest))
	puts := make([]insert, 0, len(latest))
	for key, r := range latest {
		r = canonicalResult(r)
		// A record whose result is already cached verbatim is skipped
		// entirely: the cursor restarts at zero on every boot, so without
		// this check each restart would re-fsync and re-journal the
		// leader's whole history.
		if cur, ok := e.cache.Get(key); ok && resultsEqual(cur, r) {
			e.met.replSkipped.Inc()
			continue
		}
		if e.journal != nil {
			data, jerr := json.Marshal(r)
			if jerr != nil {
				slog.Error("follower failed to encode journal record", "component", "follower", "job_id", r.ID, "err", jerr)
				continue
			}
			kvs = append(kvs, journal.KV{Key: []byte(key), Value: data})
		}
		puts = append(puts, insert{key, r})
	}
	if len(kvs) > 0 {
		if _, err := e.journal.AppendBatch(kvs); err != nil {
			// Durability lost, correctness kept: the in-memory results still
			// serve (same degradation as journalAppend on the leader path).
			slog.Error("follower journal batch append failed; serving from memory only", "component", "follower", "records", len(kvs), "err", err)
		}
	}
	for _, p := range puts {
		e.cache.Put(p.key, p.r)
		e.met.replApplied.Inc()
	}
	return cursor
}

// applyLease handles one replicated lease meta-record: persist it locally
// (so a restart recovers the fleet's leadership view from its own disk)
// and fold the claim into the election state.
func (e *Engine) applyLease(key []byte, raw json.RawMessage) {
	if len(raw) == 0 {
		return
	}
	var claim leaseClaim
	if err := json.Unmarshal(raw, &claim); err != nil {
		slog.Warn("follower skipping bad lease record", "component", "follower", "err", err)
		return
	}
	if e.journal != nil {
		if _, err := e.journal.Append(key, raw); err != nil {
			slog.Error("follower failed to journal lease record", "component", "follower", "epoch", claim.Epoch, "err", err)
		}
	}
	e.cluster.observeLease(claim)
}

// pullTail performs one long-polling tail request against the peer.
func (e *Engine) pullTail(ctx context.Context, client *http.Client, peer string, cursor uint64) (TailResponse, error) {
	u := fmt.Sprintf("%s/v1/journal/tail?after=%d&limit=%d&wait=%s",
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
		return TailResponse{}, fmt.Errorf("peer tail: HTTP %d (is the peer running with -journal-dir?)", resp.StatusCode)
	}
	var tr TailResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return TailResponse{}, fmt.Errorf("decoding peer tail: %w", err)
	}
	return tr, nil
}

// stopFollower cancels the follower's in-flight long poll and waits for
// the loop to exit; idempotent, so a failover promotion and Close can both
// call it.
func (e *Engine) stopFollower() {
	if e.followCancel == nil {
		return
	}
	e.followCancel()
	e.followWG.Wait()
	e.followCancel = nil
}
