// Command xbarserver serves the parallel crossbar compilation engine as a
// batch HTTP service.
//
//	xbarserver -addr :8080 -workers 0 -cache 1024 -timeout 30s \
//	    -journal-dir /var/lib/xbarserver/journal -max-queued-jobs 8192
//
// API:
//
//	POST /v1/jobs                submit a batch: {"jobs":[{"kind":
//	                             "synthesize-two-level","benchmark":"rd53"},
//	                             ...]} -> {"batch_id":"b00000001",
//	                             "job_ids":["j00000001",...]}; over-limit
//	                             submissions get 429 + Retry-After (and so
//	                             do over-quota clients when -client-rps is
//	                             set, keyed by the X-Client-ID header)
//	GET  /v1/jobs/{id}           poll one job: {"id","status","result"?}
//	GET  /v1/batches/{id}/events stream the batch's results as Server-Sent
//	                             Events (one "result" event per job, then
//	                             "done")
//	GET  /v1/journal/tail        follower-replication feed: committed
//	                             journal records past ?after=N (long-polls
//	                             with ?wait=25s); requires -journal-dir
//	GET  /v1/cluster/state       this member's election view: role, epoch,
//	                             leader, replication cursor, lease age
//	GET  /healthz                liveness plus engine counters (always 200
//	                             while the process serves)
//	GET  /readyz                 readiness: 503 while draining or the
//	                             journal is failed — probe this, not
//	                             /healthz, for load-balancer membership
//	GET  /metrics                Prometheus text exposition: engine,
//	                             journal, HTTP, quota, and replication
//	                             metric families (see README, Observability)
//	GET  /v1/traces/{id}         one sampled trace's span timeline (pass a
//	                             traceparent header on submit, or use the
//	                             trace_id the submit response returns)
//	GET  /v1/traces?slowest=N    the N slowest kept trace timelines
//
// With -ops-addr a second, operator-only listener serves net/http/pprof at
// /debug/pprof/ plus plain-text /debug/stack and /debug/heap snapshots.
//
// Job kinds: synthesize-two-level, synthesize-multilevel, map-hba, map-ea,
// monte-carlo-yield. Functions come from a built-in "benchmark" name or
// PLA-style "rows" with "inputs"/"outputs". Identical jobs are deduplicated
// through the engine's result cache. With -journal-dir every finished
// result is group-committed to a segmented write-ahead log before it is
// published, so a server killed at any point restarts with everything it
// ever acknowledged; the journal is the server's only durable state, and
// without it the cache starts empty.
//
// With -cluster-self and -cluster-peers the member joins lease-based
// leader election on the journal: followers mirror the leader's journal
// into their own and heartbeat it through the replication feed; when the
// lease expires, the follower with the highest replicated sequence
// promotes itself and the rest re-aim. Replication runs only between
// cluster members: a read replica is a member. A member whose journal
// holds no lease runs one election before it serves, so the first member
// up leads and a later one adopts the live leader. Front a fleet with
// xbargateway for consistent-hash routing and failover-aware retries.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/ops"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "result cache entries (negative disables)")
	journalDir := flag.String("journal-dir", "", "durable job journal directory: group-committed WAL of finished results, replayed at startup")
	journalSegBytes := flag.Int64("journal-segment-bytes", 0, "journal segment rotation threshold in bytes (0 = 4 MiB)")
	journalCompactEvery := flag.Duration("journal-compact-interval", 0, "journal compaction period (0 = 5m, negative disables)")
	journalMaxAge := flag.Duration("journal-max-age", 0, "drop journal records older than this at compaction (0 = keep all)")
	journalMaxRecords := flag.Int("journal-max-records", 0, "keep only the newest N live journal records at compaction (0 = keep all)")
	clusterSelf := flag.String("cluster-self", "", "this member's own base URL: joins lease-based leader election with -cluster-peers (requires -journal-dir)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated base URLs of the other cluster members")
	lease := flag.Duration("lease", 0, "leader lease duration: followers elect after this long without leader contact; the election loop ticks every lease/3 and the leader renews once lease/2 has passed (0 = 3s)")
	timeout := flag.Duration("timeout", 0, "default per-job timeout (0 = none)")
	maxQueued := flag.Int("max-queued-jobs", 0, "admission control: reject batches beyond this many unfinished jobs with 429 (0 = unlimited)")
	maxBatches := flag.Int("max-batches", 0, "admission control: reject submissions beyond this many open batches with 429 (0 = unlimited)")
	clientRPS := flag.Float64("client-rps", 0, "per-client quota: sustained submissions/sec per X-Client-ID before 429 + Retry-After (0 = disabled)")
	clientBurst := flag.Int("client-burst", 0, "per-client burst allowance with -client-rps (0 = max(1, one second of -client-rps))")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "bound on graceful shutdown: after this, in-flight work is abandoned (journal still flushed); 0 waits forever")
	traceSample := flag.Float64("trace-sample", 0, "fraction of unremarkable traces kept beyond errored/slow/flagged ones (0 = 0.10 default, negative disables)")
	opsAddr := flag.String("ops-addr", "", "opt-in debug listener (net/http/pprof, /debug/stack, /debug/heap) on a separate port; empty disables")
	flag.Parse()

	// Structured JSON logs on stderr; the stdlib default logger is bridged
	// through the same handler, so residual log.Printf callers (including
	// dependencies) come out as JSON too.
	slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))

	var peers []string
	for _, p := range strings.Split(*clusterPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if *clusterSelf != "" && *journalDir == "" {
		slog.Error("-cluster-self requires -journal-dir (the lease lives in the journal)", "component", "xbarserver")
		os.Exit(1)
	}

	e := engine.New(engine.Options{
		Workers:                *workers,
		CacheSize:              *cacheSize,
		JournalDir:             *journalDir,
		JournalSegmentBytes:    *journalSegBytes,
		JournalCompactInterval: *journalCompactEvery,
		JournalMaxAge:          *journalMaxAge,
		JournalMaxRecords:      *journalMaxRecords,
		ClusterSelf:            strings.TrimRight(*clusterSelf, "/"),
		ClusterPeers:           peers,
		LeaseDuration:          *lease,
		DefaultTimeout:         *timeout,
		MaxQueuedJobs:          *maxQueued,
		MaxBatches:             *maxBatches,
		ClientRPS:              *clientRPS,
		ClientBurst:            *clientBurst,
		TraceSampleRate:        *traceSample,
	})
	if *opsAddr != "" {
		opsSrv, err := ops.Start(*opsAddr)
		if err != nil {
			slog.Error("ops listener failed", "component", "xbarserver", "addr", *opsAddr, "err", err)
			os.Exit(1)
		}
		defer opsSrv.Close()
		slog.Info("ops debug listener up", "component", "xbarserver", "addr", *opsAddr)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           engine.NewHTTPHandler(e),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Unblock live SSE streams and long-polling journal tails when
	// Shutdown starts, so graceful shutdown doesn't wait out its whole
	// timeout on a subscriber to a slow batch.
	srv.RegisterOnShutdown(e.StopStreams)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("xbarserver listening", "component", "xbarserver", "addr", *addr,
		"workers", *workers, "cache", *cacheSize, "journal_dir", *journalDir,
		"cluster_self", *clusterSelf)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		slog.Info("shutting down on signal", "component", "xbarserver",
			"signal", sig.String(), "bound", *shutdownTimeout)
		ctx := context.Background()
		var deadline time.Time
		if *shutdownTimeout > 0 {
			deadline = time.Now().Add(*shutdownTimeout)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		if err := srv.Shutdown(ctx); err != nil {
			slog.Warn("http shutdown incomplete", "component", "xbarserver", "err", err)
		}
		// The flag is ONE budget for the whole shutdown, not one per phase:
		// the engine drain gets whatever the HTTP drain left, so an
		// operator can size an external kill timer to the flag. A stuck
		// batch still cannot hang exit — the journal is flushed and closed
		// even when the drain is abandoned.
		bound := time.Duration(0) // wait forever when unbounded
		if !deadline.IsZero() {
			bound = max(time.Until(deadline), time.Millisecond)
		}
		e.CloseTimeout(bound)
	case err := <-errCh:
		// Release the workers and close the journal on the server-error
		// path too, not just on signal-driven shutdown.
		e.CloseTimeout(*shutdownTimeout)
		if !errors.Is(err, http.ErrServerClosed) {
			slog.Error("server failed", "component", "xbarserver", "err", err)
			os.Exit(1)
		}
	}
}
