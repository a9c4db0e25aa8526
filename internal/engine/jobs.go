package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/defect"
	"repro/internal/lfg"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

// Kind selects what a job computes.
type Kind string

const (
	// SynthTwoLevel places the function on the two-level NAND–AND crossbar
	// and reports its geometry.
	SynthTwoLevel Kind = "synthesize-two-level"
	// SynthMultiLevel factors the function into a NAND network, places it
	// on the multi-level crossbar, and reports geometry and network stats.
	SynthMultiLevel Kind = "synthesize-multilevel"
	// MapHBA maps the synthesized layout onto one defective fabric with
	// the paper's hybrid algorithm.
	MapHBA Kind = "map-hba"
	// MapEA maps with the paper's exact algorithm (EA): a complete
	// assignment by bipartite matching, found whenever one exists.
	MapEA Kind = "map-ea"
	// MonteCarloYield runs a defect-map Monte Carlo batch and reports the
	// mapping success rate Psucc and mean per-sample algorithm time.
	MonteCarloYield Kind = "monte-carlo-yield"
)

// Styles select the synthesis style a mapping or yield job operates on.
const (
	StyleTwoLevel   = "two-level"
	StyleMultiLevel = "multi-level"
)

// JobSpec describes one unit of work. The function comes from exactly one
// of three sources, in precedence order: an in-memory Cover (library
// callers), a built-in Benchmark name, or PLA-style Rows. Two specs that
// hash identically (see hash.go) are the same work and share one cached
// result.
type JobSpec struct {
	Kind Kind `json:"kind"`

	// Benchmark names a built-in circuit (memxbar.BenchmarkNames).
	Benchmark string `json:"benchmark,omitempty"`
	// Inputs, Outputs and Rows define the function as PLA product rows
	// when no benchmark is named.
	Inputs  int      `json:"inputs,omitempty"`
	Outputs int      `json:"outputs,omitempty"`
	Rows    []string `json:"rows,omitempty"`
	// Cover supplies the function directly; library callers only (not
	// serialized). Takes precedence over Benchmark and Rows.
	Cover *logic.Cover `json:"-"`
	// Layout supplies a pre-synthesized layout for map-* and
	// monte-carlo-yield jobs, skipping synthesis inside the job; library
	// callers only (not serialized). Takes precedence over every
	// function source.
	Layout *xbar.Layout `json:"-"`

	// Minimize runs two-level minimization before use (Table II maps the
	// espresso-minimized covers; the engine mirrors that convention with
	// the same iteration bound as internal/experiments).
	Minimize bool `json:"minimize,omitempty"`

	// Style selects the layout for map-* and monte-carlo-yield jobs:
	// StyleTwoLevel (default) or StyleMultiLevel.
	Style string `json:"style,omitempty"`
	// MaxFanin bounds NAND fan-in for multi-level synthesis; zero means
	// the input count.
	MaxFanin int `json:"max_fanin,omitempty"`

	// DefectMap gives the fabric explicitly for map-* jobs, one string
	// per physical row ('.' ok, 'o' stuck-open, 'x' stuck-closed). When
	// empty, a map is sampled from Seed/OpenRate/ClosedRate.
	DefectMap []string `json:"defect_map,omitempty"`
	// SpareRows adds redundant physical rows beyond the design's.
	SpareRows int `json:"spare_rows,omitempty"`
	// OpenRate and ClosedRate are the per-crosspoint defect probabilities
	// (the paper's Table II uses OpenRate 0.10).
	OpenRate   float64 `json:"open_rate,omitempty"`
	ClosedRate float64 `json:"closed_rate,omitempty"`
	// Seed drives defect sampling (the harness seed for Monte Carlo jobs).
	Seed int64 `json:"seed,omitempty"`

	// Samples is the Monte Carlo batch size; zero means the paper's 200.
	Samples int `json:"samples,omitempty"`
	// Algorithm selects the mapper for monte-carlo-yield jobs: "HBA"
	// (default), "EA", or "naive".
	Algorithm string `json:"algorithm,omitempty"`

	// TimeoutMS bounds this job's execution in milliseconds; zero uses
	// the engine default. Not part of the job's identity hash.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobResult is the outcome of one job. Err is non-empty on failure
// (including cancellation and timeout); the remaining fields are filled
// according to the job kind.
type JobResult struct {
	ID       string `json:"id"`
	Kind     Kind   `json:"kind"`
	Err      string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Elapsed is the execution time of the job body (zero on cache hits).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`

	// Synthesis outputs.
	Rows  int     `json:"rows,omitempty"`
	Cols  int     `json:"cols,omitempty"`
	Area  int     `json:"area,omitempty"`
	IR    float64 `json:"ir,omitempty"`
	Gates int     `json:"gates,omitempty"`
	Wires int     `json:"wires,omitempty"`
	Depth int     `json:"depth,omitempty"`

	// Mapping outputs.
	Valid       bool   `json:"valid,omitempty"`
	Assignment  []int  `json:"assignment,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Backtracks  int    `json:"backtracks,omitempty"`
	MatchChecks int    `json:"match_checks,omitempty"`

	// Monte Carlo outputs.
	Samples  int           `json:"samples,omitempty"`
	Psucc    float64       `json:"psucc,omitempty"`
	MeanTime time.Duration `json:"mean_time_ns,omitempty"`
}

// timeout resolves the job's effective deadline.
func (s JobSpec) timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}

// Execute runs one job synchronously. Monte Carlo jobs abort early when ctx
// is cancelled; synthesis and single-map jobs are uninterruptible compute
// kernels, so the engine enforces their deadline from outside.
func Execute(ctx context.Context, spec JobSpec) JobResult {
	start := time.Now()
	res, err := execute(ctx, spec)
	res.Kind = spec.Kind
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func execute(ctx context.Context, spec JobSpec) (JobResult, error) {
	switch spec.Kind {
	case SynthTwoLevel:
		return executeSynthTwoLevel(spec)
	case SynthMultiLevel:
		return executeSynthMultiLevel(spec)
	case MapHBA, MapEA:
		return executeMap(spec)
	case MonteCarloYield:
		return executeMonteCarlo(ctx, spec)
	default:
		return JobResult{}, fmt.Errorf("engine: unknown job kind %q", spec.Kind)
	}
}

// buildCover resolves the job's function source.
func buildCover(spec JobSpec) (*logic.Cover, error) {
	var c *logic.Cover
	switch {
	case spec.Cover != nil:
		c = spec.Cover
	case spec.Benchmark != "":
		circuit, ok := suite.ByName(spec.Benchmark)
		if !ok {
			return nil, fmt.Errorf("engine: unknown benchmark %q", spec.Benchmark)
		}
		c = circuit.Build()
	case len(spec.Rows) > 0:
		parsed, err := logic.ParseCover(spec.Inputs, spec.Outputs, spec.Rows...)
		if err != nil {
			return nil, fmt.Errorf("engine: bad rows: %v", err)
		}
		c = parsed
	default:
		return nil, fmt.Errorf("engine: job has no function (set cover, benchmark, or rows)")
	}
	if spec.Minimize {
		c = minimize.Minimize(c, minimize.Options{MaxIterations: 2})
	}
	return c, nil
}

// buildLayout synthesizes the layout a mapping-style job operates on.
func buildLayout(spec JobSpec) (*xbar.Layout, error) {
	if spec.Layout != nil {
		return spec.Layout, nil
	}
	c, err := buildCover(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Style {
	case "", StyleTwoLevel:
		return xbar.NewTwoLevel(c)
	case StyleMultiLevel:
		nw, err := synth.SynthesizeMultiLevel(c, synth.MultiLevelOptions{MaxFanin: spec.MaxFanin})
		if err != nil {
			return nil, err
		}
		return xbar.NewMultiLevel(nw)
	default:
		return nil, fmt.Errorf("engine: unknown style %q", spec.Style)
	}
}

func executeSynthTwoLevel(spec JobSpec) (JobResult, error) {
	c, err := buildCover(spec)
	if err != nil {
		return JobResult{}, err
	}
	l, err := xbar.NewTwoLevel(c)
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio()}, nil
}

func executeSynthMultiLevel(spec JobSpec) (JobResult, error) {
	c, err := buildCover(spec)
	if err != nil {
		return JobResult{}, err
	}
	nw, err := synth.SynthesizeMultiLevel(c, synth.MultiLevelOptions{
		MaxFanin: spec.MaxFanin,
		Minimize: spec.Minimize,
	})
	if err != nil {
		return JobResult{}, err
	}
	l, err := xbar.NewMultiLevel(nw)
	if err != nil {
		return JobResult{}, err
	}
	cost := synth.MultiLevel(nw)
	return JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Gates: cost.Gates, Wires: cost.Wires, Depth: cost.Depth,
	}, nil
}

// mapScratchPool shares mapping scratches (candidate matrices, matcher
// buffers) across map jobs instead of allocating a fresh one per request;
// under concurrent single-map traffic the scratch is the dominant per-job
// allocation once layouts are cached.
var mapScratchPool = sync.Pool{New: func() any { return mapping.NewScratch() }}

func executeMap(spec JobSpec) (JobResult, error) {
	l, err := buildLayout(spec)
	if err != nil {
		return JobResult{}, err
	}
	dm, err := jobDefectMap(spec, l)
	if err != nil {
		return JobResult{}, err
	}
	p, err := mapping.NewProblem(l, dm)
	if err != nil {
		return JobResult{}, err
	}
	algo := mapping.HBAScratch
	if spec.Kind == MapEA {
		algo = mapping.ExactScratch
	}
	scratch := mapScratchPool.Get().(*mapping.Scratch)
	r := algo(p, scratch)
	// r.Assignment aliases the scratch; copy it out before the scratch goes
	// back to the pool and another job overwrites the buffer.
	var assignment []int
	if r.Assignment != nil {
		assignment = append([]int(nil), r.Assignment...)
	}
	mapScratchPool.Put(scratch)
	return JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Valid: r.Valid, Assignment: assignment, Reason: r.Reason,
		Backtracks: r.Stats.Backtracks, MatchChecks: r.Stats.MatchChecks,
	}, nil
}

func executeMonteCarlo(ctx context.Context, spec JobSpec) (JobResult, error) {
	l, err := buildLayout(spec)
	if err != nil {
		return JobResult{}, err
	}
	algo, err := algorithmByName(spec.Algorithm)
	if err != nil {
		return JobResult{}, err
	}
	// Samples run serially inside the job: the engine parallelizes across
	// jobs, and per-sample rng derivation depends only on the seed and the
	// sample index, so Psucc is the same however the jobs are scheduled.
	sum, err := montecarlo.Run(montecarlo.Options{
		Samples: spec.Samples,
		Seed:    spec.Seed,
		Context: ctx,
	}, MappingTrial(l, spec.SpareRows, defect.Params{POpen: spec.OpenRate, PClosed: spec.ClosedRate}, algo))
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Samples: sum.Samples, Psucc: sum.SuccessRate, MeanTime: sum.MeanTime,
	}, nil
}

// MappingTrial is the monte-carlo-yield job's trial, shared with the
// experiment studies that map under their own algorithm variants. Build one
// per batch: it owns one defect map of the layout's rows plus spareRows,
// regenerated in place per trial, and one mapping scratch, so the trial
// loop is allocation-free in steady state; a fresh map per trial would give
// the same results. Only algo is timed. A trial that cannot be set up (problem
// construction, defect regeneration) reports Outcome.Err, which fails the
// batch instead of counting as a failed sample that would silently depress
// Psucc.
func MappingTrial(l *xbar.Layout, spareRows int, params defect.Params,
	algo func(*mapping.Problem, *mapping.Scratch) mapping.Result) montecarlo.Trial {
	dm := defect.NewMap(l.Rows+spareRows, l.Cols)
	scratch := mapping.NewScratch()
	p, pErr := mapping.NewProblem(l, dm)
	return func(i int, src *lfg.Source) montecarlo.Outcome {
		if pErr != nil {
			return montecarlo.Outcome{Err: pErr}
		}
		if err := dm.Regenerate(params, src); err != nil {
			return montecarlo.Outcome{Err: err}
		}
		start := time.Now()
		r := algo(p, scratch)
		return montecarlo.Outcome{Success: r.Valid, Elapsed: time.Since(start)}
	}
}

func algorithmByName(name string) (func(*mapping.Problem, *mapping.Scratch) mapping.Result, error) {
	switch strings.ToUpper(name) {
	case "", "HBA":
		return mapping.HBAScratch, nil
	case "EA", "EXACT":
		return mapping.ExactScratch, nil
	case "NAIVE":
		return mapping.NaiveScratch, nil
	}
	return nil, fmt.Errorf("engine: unknown algorithm %q", name)
}

// jobDefectMap resolves the fabric for a single-map job: explicit rows when
// given, otherwise one map sampled from the spec's seed.
func jobDefectMap(spec JobSpec, l *xbar.Layout) (*defect.Map, error) {
	if len(spec.DefectMap) == 0 {
		return defect.Generate(l.Rows+spec.SpareRows, l.Cols,
			defect.Params{POpen: spec.OpenRate, PClosed: spec.ClosedRate},
			lfg.New(spec.Seed))
	}
	cols := len(spec.DefectMap[0])
	dm := defect.NewMap(len(spec.DefectMap), cols)
	for r, row := range spec.DefectMap {
		if len(row) != cols {
			return nil, fmt.Errorf("engine: defect map row %d has %d cells, want %d", r, len(row), cols)
		}
		for c, ch := range row {
			switch ch {
			case '.':
			case 'o':
				dm.Set(r, c, defect.StuckOpen)
			case 'x':
				dm.Set(r, c, defect.StuckClosed)
			default:
				return nil, fmt.Errorf("engine: defect map row %d: bad cell %q (want . o x)", r, ch)
			}
		}
	}
	return dm, nil
}
