// Package montecarlo provides the sampling harness of the paper's
// experiments: fixed-size batches (the paper uses 200 samples, "fluctuating
// of parameter values stabilize nearly after this threshold value") with
// per-sample derived random seeds, success-rate accounting, and timing.
//
// A batch runs serially on the calling goroutine: one lfg.Source, the
// math/rand-identical stream, is reseeded from (Seed, sample index) before
// every trial, so a sample's outcome depends on nothing but those two
// values (package lfg states the reproducibility contract). Studies that
// want many cores run many batches at once through the compilation engine,
// one batch per job, and get bit-identical summaries.
package montecarlo

import (
	"context"
	"fmt"
	"time"

	"repro/internal/lfg"
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
	// Err marks a trial that could not run at all — an invalid defect rate,
	// a fabric smaller than the layout — as opposed to one that ran and
	// failed. Run returns the first such error in sample order instead of a
	// Summary, so a bad input never reads as a low Psucc.
	Err error
}

// Trial runs one sample. src is seeded with SampleSeed(seed, sample), so
// trials are reproducible and order independent; it is the batch's one
// source, valid only during the call. A batch calls one Trial for every
// sample, so a trial closure can own private scratch state — preallocated
// defect maps, mapping buffers — that is reused across the batch's samples.
type Trial func(sample int, src *lfg.Source) Outcome

// Summary aggregates a batch.
type Summary struct {
	Samples     int
	Successes   int
	SuccessRate float64 // the paper's Psucc
	TotalTime   time.Duration
	MeanTime    time.Duration
}

// Options tunes a run.
type Options struct {
	// Samples is the batch size; zero means DefaultSamples.
	Samples int
	// Seed drives the per-sample rngs.
	Seed int64
	// Context cancels the batch early; remaining samples are skipped and
	// Run returns the context error. Nil means no cancellation.
	Context context.Context
}

// Run executes the batch. Its memory does not grow with Samples: only the
// success count and the total time are kept.
func Run(opt Options, trial Trial) (Summary, error) {
	if trial == nil {
		return Summary{}, fmt.Errorf("montecarlo: nil trial")
	}
	n := opt.Samples
	if n == 0 {
		n = DefaultSamples
	}
	if n < 0 {
		return Summary{}, fmt.Errorf("montecarlo: negative sample count %d", n)
	}
	// One source for the whole batch, reseeded per sample: no per-trial
	// allocation.
	s := Summary{Samples: n}
	if err := runSerial(opt, trial, lfg.New(0), &s); err != nil {
		return Summary{}, err
	}
	if n > 0 {
		s.SuccessRate = float64(s.Successes) / float64(n)
		s.MeanTime = s.TotalTime / time.Duration(n)
	}
	return s, nil
}

// runSerial is the batch loop: reseed, run, tally into s, once per sample,
// stopping at the first trial that reports an Err. It is the hot loop of
// every Monte Carlo experiment, so it is pinned allocation-free; per-trial
// cost is the trial's own.
//
//xbar:hotpath
func runSerial(opt Options, trial Trial, src *lfg.Source, s *Summary) error {
	for i := 0; i < s.Samples; i++ {
		if opt.Context != nil {
			//xbar:allow hotpath-alloc cancellation poll is an interface call, not an allocation
			if err := opt.Context.Err(); err != nil {
				return err
			}
		}
		src.Seed(SampleSeed(opt.Seed, i))
		//xbar:allow hotpath-alloc the trial callback is the experiment body; its own hot paths carry their own annotations
		o := trial(i, src)
		if o.Err != nil {
			return o.Err
		}
		if o.Success {
			s.Successes++
		}
		s.TotalTime += o.Elapsed
	}
	return nil
}

// SampleSeed derives the per-sample seed from the harness seed — the
// schedule every trial's randomness comes from, exported so benchmarks and
// external replays can reproduce individual samples exactly, with an
// lfg.Source or with rand.NewSource.
//
//xbar:hotpath
func SampleSeed(seed int64, sample int) int64 {
	return seed + int64(sample)*2_147_483_659
}
