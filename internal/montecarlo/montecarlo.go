// Package montecarlo provides the sampling harness of the paper's
// experiments: fixed-size batches (the paper uses 200 samples, "fluctuating
// of parameter values stabilize nearly after this threshold value") with
// per-sample derived random seeds, success-rate accounting, and timing.
//
// Parallel runs go through the shared internal/workpool pool: each worker
// goroutine owns a private *rand.Rand that is reseeded deterministically for
// every sample it claims, so no random state is ever shared between
// goroutines and a batch produces bit-identical Values regardless of worker
// count, scheduling order, or whether it ran serially.
package montecarlo

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/workpool"
)

// DefaultSamples is the paper's Monte Carlo sample size.
const DefaultSamples = 200

// Outcome is the result of a single trial.
type Outcome struct {
	// Success marks the trial as successful (e.g. a valid mapping found).
	Success bool
	// Elapsed is the portion of the trial the experiment wants timed
	// (algorithm time only, excluding workload generation).
	Elapsed time.Duration
	// Value carries an experiment-specific measurement (e.g. area).
	Value float64
	// Err marks a trial that could not run at all — an invalid defect rate,
	// a fabric smaller than the layout — as opposed to one that ran and
	// failed. RunFactory returns the first such error in sample order
	// instead of a Summary, so a bad input never reads as a low Psucc.
	Err error
}

// Trial runs one sample. The rng is derived deterministically from the
// harness seed and the sample index, so trials are reproducible and order
// independent.
type Trial func(sample int, rng *rand.Rand) Outcome

// TrialFactory builds one Trial per worker goroutine (one total for serial
// runs), so a trial can own private scratch state — preallocated defect
// maps, mapping buffers — that is reused across the samples that worker
// claims. Because per-sample randomness is derived from the harness seed
// and sample index alone, results are identical no matter how samples are
// spread over workers.
type TrialFactory func() Trial

// Summary aggregates a batch.
type Summary struct {
	Samples     int
	Successes   int
	SuccessRate float64 // the paper's Psucc
	TotalTime   time.Duration
	MeanTime    time.Duration
	Values      []float64 // per-sample Value, in sample order
}

// Options tunes a run.
type Options struct {
	// Samples is the batch size; zero means DefaultSamples.
	Samples int
	// Seed drives the per-sample rngs.
	Seed int64
	// Parallel runs trials across Workers goroutines. Determinism is
	// preserved because each sample's rng state is derived from Seed and
	// the sample index alone.
	Parallel bool
	// Workers bounds the parallel pool; zero means GOMAXPROCS. Ignored
	// unless Parallel is set.
	Workers int
	// Context cancels the batch early; remaining samples are skipped and
	// Run returns the context error. Nil means no cancellation.
	Context context.Context
}

// Run executes the batch.
func Run(opt Options, trial Trial) (Summary, error) {
	if trial == nil {
		return Summary{}, fmt.Errorf("montecarlo: nil trial")
	}
	return RunFactory(opt, func() Trial { return trial })
}

// RunFactory executes the batch with one Trial per worker built by the
// factory, enabling per-worker scratch state. Run is RunFactory with a
// factory that shares one Trial everywhere.
func RunFactory(opt Options, factory TrialFactory) (Summary, error) {
	if factory == nil {
		return Summary{}, fmt.Errorf("montecarlo: nil trial factory")
	}
	n := opt.Samples
	if n == 0 {
		n = DefaultSamples
	}
	if n < 0 {
		return Summary{}, fmt.Errorf("montecarlo: negative sample count %d", n)
	}
	outcomes := make([]Outcome, n)
	if opt.Parallel {
		workers := opt.Workers
		if workers <= 0 {
			workers = workpool.DefaultWorkers()
		}
		if workers > n {
			workers = n
		}
		// One private rng and trial per worker: the rng is reseeded from
		// (Seed, sample) before each trial, so results do not depend on
		// which worker claims which sample.
		rngs := make([]*rand.Rand, workers)
		trials := make([]Trial, workers)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(0))
			if trials[w] = factory(); trials[w] == nil {
				return Summary{}, fmt.Errorf("montecarlo: factory returned nil trial")
			}
		}
		if err := workpool.Run(opt.Context, workers, n, func(w, i int) {
			runSample(opt.Seed, i, rngs[w], trials[w], outcomes)
		}); err != nil {
			return Summary{}, err
		}
		for _, o := range outcomes {
			if o.Err != nil {
				return Summary{}, o.Err
			}
		}
	} else {
		// One rng for the whole serial batch, reseeded per sample exactly
		// like the parallel workers' — bit-identical outcomes, no per-trial
		// source allocation.
		trial := factory()
		if trial == nil {
			return Summary{}, fmt.Errorf("montecarlo: factory returned nil trial")
		}
		rng := rand.New(rand.NewSource(0))
		if err := runSerial(opt, trial, rng, outcomes); err != nil {
			return Summary{}, err
		}
	}
	s := Summary{Samples: n, Values: make([]float64, n)}
	for i, o := range outcomes {
		if o.Success {
			s.Successes++
		}
		s.TotalTime += o.Elapsed
		s.Values[i] = o.Value
	}
	if n > 0 {
		s.SuccessRate = float64(s.Successes) / float64(n)
		s.MeanTime = s.TotalTime / time.Duration(n)
	}
	return s, nil
}

// runSerial is the serial batch loop: reseed, run, record, once per
// sample, stopping at the first trial that reports an Err. It is the hot
// loop of every non-parallel experiment, so it is pinned allocation-free;
// per-trial cost is the trial's own.
//
//xbar:hotpath
func runSerial(opt Options, trial Trial, rng *rand.Rand, outcomes []Outcome) error {
	for i := range outcomes {
		if opt.Context != nil {
			//xbar:allow hotpath-alloc cancellation poll is an interface call, not an allocation
			if err := opt.Context.Err(); err != nil {
				return err
			}
		}
		runSample(opt.Seed, i, rng, trial, outcomes)
		if err := outcomes[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// runSample reseeds the (worker-private) rng for sample i and runs the
// trial: the shared per-sample step of the serial and parallel paths, which
// is what makes their outcomes bit-identical.
//
//xbar:hotpath
func runSample(seed int64, i int, rng *rand.Rand, trial Trial, outcomes []Outcome) {
	rng.Seed(SampleSeed(seed, i))
	//xbar:allow hotpath-alloc the trial callback is the experiment body; its own hot paths carry their own annotations
	outcomes[i] = trial(i, rng)
}

// SampleSeed derives the per-sample rng seed from the harness seed — the
// schedule every trial's randomness comes from, exported so benchmarks and
// external replays can reproduce individual samples exactly.
//
//xbar:hotpath
func SampleSeed(seed int64, sample int) int64 {
	return seed + int64(sample)*2_147_483_659
}
