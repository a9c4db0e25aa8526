// Package memxbar is a library for logic synthesis and defect tolerance on
// memristive crossbar arrays, reproducing Tunali & Altun, "Logic Synthesis
// and Defect Tolerance for Memristive Crossbar Arrays" (DATE 2018).
//
// The library covers the paper end to end:
//
//   - Two-level synthesis: a sum-of-products function is placed on the
//     NAND–AND crossbar; area = (P+O)·(2I+2O), and the smaller of f and f̄
//     can be selected automatically (the "dual" optimization).
//   - Multi-level synthesis: the function is factored into a NAND-only
//     network (fan-in 2..n) evaluated gate-by-gate on the fabric through
//     multi-level connection columns.
//   - Defect tolerance: stuck-at-open / stuck-at-closed defect maps, and
//     the paper's mapping algorithms — the hybrid HBA (greedy with
//     backtracking plus an exact assignment of the output rows) and the
//     exact EA, both solving the assignment by bipartite matching where the
//     paper uses Munkres' method.
//   - A functional Snider-logic simulator that runs any design, mapped or
//     not, defective or not, through the controller state machine.
//
// Quick start:
//
//	f, _ := memxbar.ParseFunction(8, 1,
//	    "1-------", "-1------", "--1-----", "---1----", "----1111")
//	design, _ := memxbar.SynthesizeTwoLevel(f)
//	fmt.Println(design.Area()) // 108
//
// # The compilation engine
//
// For batch workloads the library provides a parallel compilation engine:
// jobs (synthesis, defect mapping, Monte Carlo yield studies) run on a
// bounded worker pool with per-job timeouts and context cancellation, and
// identical jobs are deduplicated through a sharded LRU result cache keyed
// by a canonical function/defect hash. Results stream back as they finish:
//
//	eng := memxbar.NewEngine(memxbar.EngineOptions{})
//	defer eng.Close()
//	results, _ := eng.Run(ctx, []memxbar.Job{
//	    {Kind: memxbar.JobSynthTwoLevel, Benchmark: "rd53"},
//	    {Kind: memxbar.JobMonteCarloYield, Benchmark: "rd84",
//	        OpenRate: 0.10, Samples: 200, Algorithm: "HBA"},
//	})
//
// The same engine powers the cmd/xbarserver HTTP batch service
// (POST /v1/jobs, GET /v1/jobs/{id}, GET /healthz) — Engine.Handler returns
// the ready-made handler — and the cmd/experiments table reproductions.
package memxbar

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/lfg"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/pla"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

// Function is a completely specified multi-output Boolean function in
// sum-of-products form.
type Function struct {
	cover *logic.Cover
	name  string
}

// ParseFunction builds a function from PLA-style product rows such as
// "1-0 10" (input part, space, output part; the output part may be omitted
// for single-output functions).
func ParseFunction(inputs, outputs int, rows ...string) (*Function, error) {
	c, err := logic.ParseCover(inputs, outputs, rows...)
	if err != nil {
		return nil, err
	}
	return &Function{cover: c}, nil
}

// ParsePLA reads an espresso-format PLA file.
func ParsePLA(r io.Reader) (*Function, error) {
	f, err := pla.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Function{cover: f.Cover, name: f.Name}, nil
}

// Benchmark returns one of the built-in benchmark circuits of the paper's
// Tables I and II (rd53, rd73, rd84, sqrt8, squar5, misex1, alu4, ...). See
// BenchmarkNames for the full list.
func Benchmark(name string) (*Function, error) {
	c, ok := suite.ByName(name)
	if !ok {
		return nil, fmt.Errorf("memxbar: unknown benchmark %q (see BenchmarkNames)", name)
	}
	return &Function{cover: c.Build(), name: name}, nil
}

// BenchmarkNames lists the built-in benchmark circuits.
func BenchmarkNames() []string { return suite.Names() }

// Name returns the function's name, when it has one.
func (f *Function) Name() string { return f.name }

// Inputs reports the input count I.
func (f *Function) Inputs() int { return f.cover.NumIn }

// Outputs reports the output count O.
func (f *Function) Outputs() int { return f.cover.NumOut }

// Products reports the product-term count P.
func (f *Function) Products() int { return f.cover.NumProducts() }

// Eval computes all outputs for an input assignment.
func (f *Function) Eval(x []bool) []bool { return f.cover.Eval(x) }

// Minimize returns a two-level minimized copy (espresso-style heuristic).
func (f *Function) Minimize() *Function {
	return &Function{cover: minimize.Minimize(f.cover, minimize.Options{}), name: f.name}
}

// Complement returns the function computing the negation of every output.
func (f *Function) Complement() *Function {
	return &Function{cover: f.cover.ComplementAll(), name: f.name}
}

// String renders the function's PLA rows.
func (f *Function) String() string { return f.cover.String() }

// Cover exposes the underlying cover for advanced use alongside the
// internal packages.
func (f *Function) Cover() *logic.Cover { return f.cover }

// ---------------------------------------------------------------------------
// Designs.

// Design is a function placed on the crossbar, either style.
type Design struct {
	layout *xbar.Layout
	fn     *Function
}

// SynthesizeTwoLevel places the function on the two-level NAND–AND crossbar
// (Fig. 3 of the paper).
func SynthesizeTwoLevel(f *Function) (*Design, error) {
	l, err := xbar.NewTwoLevel(f.cover)
	if err != nil {
		return nil, err
	}
	return &Design{layout: l, fn: f}, nil
}

// MultiLevelOptions tunes multi-level synthesis.
type MultiLevelOptions struct {
	// MaxFanin bounds NAND fan-in; zero means the input count (the paper's
	// "fan-in sizes 2 to n").
	MaxFanin int
	// Minimize runs two-level minimization before factoring.
	Minimize bool
}

// SynthesizeMultiLevel factors the function into a NAND network and places
// it on the multi-level crossbar (Fig. 5 of the paper).
func SynthesizeMultiLevel(f *Function, opt MultiLevelOptions) (*Design, error) {
	nw, err := synth.SynthesizeMultiLevel(f.cover, synth.MultiLevelOptions{
		MaxFanin: opt.MaxFanin,
		Minimize: opt.Minimize,
	})
	if err != nil {
		return nil, err
	}
	l, err := xbar.NewMultiLevel(nw)
	if err != nil {
		return nil, err
	}
	return &Design{layout: l, fn: f}, nil
}

// SynthesizeDual implements the paper's dual optimization: it synthesizes
// both f and f̄ two-level and returns the smaller design plus a flag saying
// whether the complement was chosen (in which case the fabric's f output
// carries f̄ and vice versa).
func SynthesizeDual(f *Function) (*Design, bool, error) {
	min := func(c *logic.Cover) *logic.Cover { return minimize.Minimize(c, minimize.Options{}) }
	choice := synth.ChooseDual(f.cover, min)
	d, err := SynthesizeTwoLevel(&Function{cover: choice.ChosenCover, name: f.name})
	if err != nil {
		return nil, false, err
	}
	return d, choice.UseComplement, nil
}

// Rows reports the horizontal line count of the design.
func (d *Design) Rows() int { return d.layout.Rows }

// Cols reports the vertical line count of the design.
func (d *Design) Cols() int { return d.layout.Cols }

// Area reports rows × cols, the paper's area cost.
func (d *Design) Area() int { return d.layout.Area() }

// InclusionRatio reports the fraction of programmed-active devices.
func (d *Design) InclusionRatio() float64 { return d.layout.InclusionRatio() }

// MultiLevel reports whether the design uses the multi-level style.
func (d *Design) MultiLevel() bool { return d.layout.MultiLevel }

// Render draws the device placement as ASCII art.
func (d *Design) Render() string { return d.layout.Render() }

// Simulate runs the design on a perfect fabric through the controller state
// machine and returns the outputs.
func (d *Design) Simulate(x []bool) ([]bool, error) {
	res, err := d.layout.Simulate(x)
	if err != nil {
		return nil, err
	}
	return res.F, nil
}

// Layout exposes the underlying layout for advanced use. Layouts are
// immutable after synthesis: the mapping algorithms and the engine's result
// cache read word-packed mirrors of the device placement built at
// construction time, so mutating the returned layout's fields would desync
// them. Treat it as read-only.
func (d *Design) Layout() *xbar.Layout { return d.layout }

// ---------------------------------------------------------------------------
// Defects and mapping.

// DefectMap is the defect state of one fabricated crossbar.
type DefectMap struct {
	m *defect.Map
}

// GenerateDefects samples a defect map with independent per-crosspoint
// stuck-open and stuck-closed probabilities (the paper's model; its Table II
// uses openRate=0.10, closedRate=0).
func GenerateDefects(rows, cols int, openRate, closedRate float64, seed int64) (*DefectMap, error) {
	m, err := defect.Generate(rows, cols, defect.Params{POpen: openRate, PClosed: closedRate},
		lfg.New(seed))
	if err != nil {
		return nil, err
	}
	return &DefectMap{m: m}, nil
}

// NewDefectMap returns an all-functional map, useful as a base for targeted
// fault injection via SetStuckOpen / SetStuckClosed.
func NewDefectMap(rows, cols int) *DefectMap {
	return &DefectMap{m: defect.NewMap(rows, cols)}
}

// SetStuckOpen marks the device at (row, col) stuck at R_OFF.
func (dm *DefectMap) SetStuckOpen(row, col int) { dm.m.Set(row, col, defect.StuckOpen) }

// SetStuckClosed marks the device at (row, col) stuck at R_ON.
func (dm *DefectMap) SetStuckClosed(row, col int) { dm.m.Set(row, col, defect.StuckClosed) }

// Rows reports the physical row count.
func (dm *DefectMap) Rows() int { return dm.m.Rows }

// Cols reports the physical column count.
func (dm *DefectMap) Cols() int { return dm.m.Cols }

// String renders the map ('.' ok, 'o' open, 'x' closed).
func (dm *DefectMap) String() string { return dm.m.String() }

// Map exposes the underlying defect map for advanced use.
func (dm *DefectMap) Map() *defect.Map { return dm.m }

// Algorithm selects a mapping algorithm.
type Algorithm int

const (
	// HBA is the paper's hybrid algorithm (Algorithm 1): heuristic product
	// placement plus exact output assignment. Fast, near-exact.
	HBA Algorithm = iota
	// Exact is the paper's EA: an exact assignment of every row, solved
	// by bipartite matching (the paper uses Munkres' method). Finds a
	// mapping whenever one exists.
	Exact
	// Naive ignores defects (the Fig. 7a baseline).
	Naive
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case HBA:
		return "HBA"
	case Exact:
		return "EA"
	case Naive:
		return "naive"
	}
	return "unknown"
}

// Mapping is a defect-avoiding placement of a design on a fabric.
type Mapping struct {
	// Valid reports whether a complete defect-avoiding assignment exists.
	Valid bool
	// Assignment maps each design row to a physical row (nil when invalid).
	Assignment []int
	// Reason explains failure.
	Reason string
	// Backtracks and MatchChecks expose algorithm effort.
	Backtracks  int
	MatchChecks int
}

// MapDefects runs the selected algorithm to place the design on the
// defective fabric. The defect map may have spare rows beyond the design's
// (redundancy); columns must match exactly.
func (d *Design) MapDefects(dm *DefectMap, algo Algorithm) (*Mapping, error) {
	p, err := mapping.NewProblem(d.layout, dm.m)
	if err != nil {
		return nil, err
	}
	var res mapping.Result
	switch algo {
	case HBA:
		res = mapping.HBA(p)
	case Exact:
		res = mapping.Exact(p)
	case Naive:
		res = mapping.Naive(p)
	default:
		return nil, fmt.Errorf("memxbar: unknown algorithm %v", algo)
	}
	return &Mapping{
		Valid:       res.Valid,
		Assignment:  res.Assignment,
		Reason:      res.Reason,
		Backtracks:  res.Stats.Backtracks,
		MatchChecks: res.Stats.MatchChecks,
	}, nil
}

// ---------------------------------------------------------------------------
// The compilation engine.

// Job describes one unit of engine work. The function comes from an
// in-memory Cover (see NewJob), a built-in Benchmark name, or PLA Rows.
type Job = engine.JobSpec

// JobResult is the outcome of one engine job.
type JobResult = engine.JobResult

// JobKind selects what a job computes.
type JobKind = engine.Kind

// Job kinds accepted by the engine.
const (
	JobSynthTwoLevel   = engine.SynthTwoLevel
	JobSynthMultiLevel = engine.SynthMultiLevel
	JobMapHBA          = engine.MapHBA
	JobMapEA           = engine.MapEA
	JobMonteCarloYield = engine.MonteCarloYield
)

// Batch is one submitted job group: assigned IDs plus a channel streaming
// results as they finish.
type Batch = engine.Batch

// EngineStats snapshots engine counters (submissions, cache hits, peak
// concurrency). The counts are read from the engine's metrics registry, so
// they match what a /metrics scrape of the same engine reports.
type EngineStats = engine.Stats

// ErrEngineOverloaded is reported (wrapped) by Engine.Submit and Engine.Run
// when admission control rejects a batch; callers should back off and retry.
var ErrEngineOverloaded = engine.ErrOverloaded

// EngineOptions tunes NewEngine.
type EngineOptions struct {
	// Workers bounds concurrent job execution; zero means GOMAXPROCS.
	Workers int
	// CacheSize is the result cache entry budget: zero means the default
	// (1024), negative disables caching.
	CacheSize int
	// DefaultTimeout bounds each job unless the job sets its own; zero
	// means no limit.
	DefaultTimeout time.Duration
	// MaxQueuedJobs bounds jobs admitted but not yet finished; Submit
	// fails with ErrEngineOverloaded beyond it. Zero means unlimited.
	MaxQueuedJobs int
	// MaxBatches bounds concurrently open batches; Submit fails with
	// ErrEngineOverloaded beyond it. Zero means unlimited.
	MaxBatches int
	// JournalDir, when non-empty, makes finished results durable in a
	// segmented write-ahead log under this directory: every result is
	// group-committed before it is published, and NewEngine recovers by
	// replaying the journal, so an engine killed at any point restarts
	// with everything it ever acknowledged. The journal is the engine's
	// only durable state: without it the result cache is in memory.
	JournalDir string
	// JournalCompactInterval is the background journal compaction period;
	// zero means the default (5m), negative disables it.
	JournalCompactInterval time.Duration
	// JournalMaxAge drops journal records older than this at compaction;
	// zero keeps all.
	JournalMaxAge time.Duration
	// JournalMaxRecords keeps only the newest this-many live journal
	// records at compaction; zero keeps all.
	JournalMaxRecords int
	// ClusterSelf, with ClusterPeers, joins this engine to lease-based
	// leader election: the member named here participates as itself
	// (requires JournalDir — the lease lives in the journal). Followers
	// mirror the leader automatically; on lease expiry the follower with
	// the highest replicated sequence promotes itself. Replication runs
	// only between members. A member whose journal holds no lease runs
	// one election inside NewEngine: it adopts a live leader, or leads
	// when no reachable peer does.
	ClusterSelf string
	// ClusterPeers are the other members' base URLs.
	ClusterPeers []string
	// LeaseDuration is the leader lease; followers elect after this long
	// without leader contact. Zero means the default (3s).
	LeaseDuration time.Duration
	// ClientRPS enables per-client submission quotas in Handler: each
	// X-Client-ID may submit this many batches per second sustained
	// (burst up to ClientBurst) before 429 + Retry-After. Zero disables.
	ClientRPS float64
	// ClientBurst is the per-client burst allowance; zero means the
	// larger of 1 and one second's worth of ClientRPS.
	ClientBurst int
}

// Engine runs batches of synthesis, mapping, and Monte Carlo jobs on a
// bounded worker pool with result caching. See the package documentation
// for an overview.
type Engine struct {
	e *engine.Engine
}

// NewEngine starts an engine; Close it to release the workers and close the
// journal.
func NewEngine(opt EngineOptions) *Engine {
	return &Engine{e: engine.New(engine.Options{
		Workers:                opt.Workers,
		CacheSize:              opt.CacheSize,
		JournalDir:             opt.JournalDir,
		JournalCompactInterval: opt.JournalCompactInterval,
		JournalMaxAge:          opt.JournalMaxAge,
		JournalMaxRecords:      opt.JournalMaxRecords,
		ClusterSelf:            opt.ClusterSelf,
		ClusterPeers:           opt.ClusterPeers,
		LeaseDuration:          opt.LeaseDuration,
		DefaultTimeout:         opt.DefaultTimeout,
		MaxQueuedJobs:          opt.MaxQueuedJobs,
		MaxBatches:             opt.MaxBatches,
		ClientRPS:              opt.ClientRPS,
		ClientBurst:            opt.ClientBurst,
	})}
}

// NewJob builds a job of the given kind computing on the function.
func NewJob(kind JobKind, f *Function) Job {
	return Job{Kind: kind, Cover: f.cover}
}

// Submit enqueues a batch and returns immediately; results stream over
// Batch.Results as jobs finish.
func (e *Engine) Submit(ctx context.Context, jobs []Job) (*Batch, error) {
	return e.e.Submit(ctx, jobs)
}

// Run submits the batch and blocks until every job finishes, returning
// results in job order. Individual failures (including per-job timeouts and
// cancellation) are reported in JobResult.Err, not as a call error.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	return e.e.Run(ctx, jobs)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Handler returns the xbarserver HTTP API (POST /v1/jobs, GET /v1/jobs/{id},
// GET /v1/batches/{id}/events SSE streaming, GET /healthz) backed by this
// engine, for embedding in any mux.
func (e *Engine) Handler() http.Handler { return engine.NewHTTPHandler(e.e) }

// StopStreams unblocks every currently connected SSE subscriber of Handler
// without stopping the engine (later subscribers stream normally); wire it
// to http.Server.RegisterOnShutdown so graceful shutdown isn't held up by
// live streams. Close calls it too.
func (e *Engine) StopStreams() { e.e.StopStreams() }

// Close stops accepting work, drains queued jobs, and releases the workers.
func (e *Engine) Close() { e.e.Close() }

// CloseTimeout is Close with a bound on the drain: when queued jobs have
// not finished within d (zero waits forever), the remaining work is
// abandoned — the journal is still flushed and closed, so every result
// journaled before the timeout stays durable.
func (e *Engine) CloseTimeout(d time.Duration) { e.e.CloseTimeout(d) }

// SimulateMapped runs the design on the defective fabric under the given
// mapping and returns the outputs, so callers can verify the mapped
// crossbar really computes the function.
func (d *Design) SimulateMapped(x []bool, dm *DefectMap, m *Mapping) ([]bool, error) {
	if m == nil || !m.Valid {
		return nil, fmt.Errorf("memxbar: mapping is not valid")
	}
	res, err := d.layout.SimulateMapped(x, dm.m, m.Assignment)
	if err != nil {
		return nil, err
	}
	return res.F, nil
}
