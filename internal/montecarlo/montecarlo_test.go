package montecarlo

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/lfg"
)

// draws runs a batch whose trial records each sample's first draw, in the
// order the samples run.
func draws(t *testing.T, samples int, seed int64) []int64 {
	t.Helper()
	var got []int64
	if _, err := Run(Options{Samples: samples, Seed: seed}, func(i int, src *lfg.Source) Outcome {
		got = append(got, src.Int63())
		return Outcome{}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRunBasics(t *testing.T) {
	var order []int
	s, err := Run(Options{Samples: 100, Seed: 1}, func(i int, src *lfg.Source) Outcome {
		order = append(order, i)
		return Outcome{Success: i%2 == 0, Elapsed: time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != 100 || s.Successes != 50 || s.SuccessRate != 0.5 {
		t.Errorf("summary = %+v", s)
	}
	if s.TotalTime != 100*time.Millisecond || s.MeanTime != time.Millisecond {
		t.Errorf("timing = %v/%v", s.TotalTime, s.MeanTime)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sample %d ran at position %d; samples must run in order", got, i)
		}
	}
}

// TestRunMemoryIndependentOfSamples pins that a batch keeps no per-sample
// state: a million no-op samples allocate less than one megabyte in total,
// so a huge Samples value in a job spec costs time, not memory.
func TestRunMemoryIndependentOfSamples(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(Options{Samples: 1_000_000}, func(i int, src *lfg.Source) Outcome { return Outcome{} }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("1,000,000-sample batch allocated %d bytes, want < 1 MiB", alloc)
	}
}

func TestRunDefaults(t *testing.T) {
	s, err := Run(Options{}, func(i int, src *lfg.Source) Outcome { return Outcome{} })
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != DefaultSamples {
		t.Errorf("samples = %d, want %d", s.Samples, DefaultSamples)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Options{}, nil); err == nil {
		t.Error("nil trial must fail")
	}
	if _, err := Run(Options{Samples: -1}, func(i int, src *lfg.Source) Outcome { return Outcome{} }); err == nil {
		t.Error("negative samples must fail")
	}
}

// TestRunTrialErrorFailsBatch: a trial reporting Err fails the whole batch
// with the first such error in sample order instead of counting as a
// failed sample.
func TestRunTrialErrorFailsBatch(t *testing.T) {
	_, err := Run(Options{Samples: 20}, func(i int, src *lfg.Source) Outcome {
		if i >= 5 {
			return Outcome{Err: fmt.Errorf("sample %d", i)}
		}
		return Outcome{Success: true}
	})
	if err == nil || err.Error() != "sample 5" {
		t.Errorf("err = %v, want sample 5", err)
	}
}

func TestRunDeterministicRNG(t *testing.T) {
	seq := draws(t, 50, 42)
	seq2 := draws(t, 50, 42)
	if len(seq) != 50 || len(seq2) != 50 {
		t.Fatalf("recorded %d and %d draws, want 50", len(seq), len(seq2))
	}
	for i := range seq {
		if seq[i] != seq2[i] {
			t.Fatal("reruns must be identical")
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Options{Samples: 100, Seed: 1, Context: ctx},
		func(i int, src *lfg.Source) Outcome { return Outcome{} })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunFactoryPerWorkerState(t *testing.T) {
	// A trial's private scratch state persists across the batch's samples,
	// and owning it does not change the draws.
	var got []int64
	claimed := 0
	s, err := Run(Options{Samples: 20, Seed: 3}, func(i int, src *lfg.Source) Outcome {
		claimed++
		got = append(got, src.Int63())
		return Outcome{Success: claimed == i+1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Successes != 20 {
		t.Fatalf("trial state persisted through %d of 20 samples", s.Successes)
	}
	// Same seeds through a stateless trial must reproduce the same draws.
	plain := draws(t, 20, 3)
	for i := range got {
		if got[i] != plain[i] {
			t.Fatalf("sample %d: stateful trial diverged from a stateless one", i)
		}
	}
}

func TestRunSamplesIndependentOfNeighbours(t *testing.T) {
	// The rng of sample i must not depend on how many samples run.
	small, big := draws(t, 5, 7), draws(t, 50, 7)
	for i := 0; i < 5; i++ {
		if small[i] != big[i] {
			t.Fatalf("sample %d changed with batch size", i)
		}
	}
}

// TestSampleStreamIsMathRand pins the reproducibility contract: sample i
// draws exactly what rand.NewSource(SampleSeed(seed, i)) draws, so Psucc
// does not depend on which of the two generators a replay uses.
func TestSampleStreamIsMathRand(t *testing.T) {
	const samples, perSample = 30, 300
	seed := int64(-2018)
	if _, err := Run(Options{Samples: samples, Seed: seed}, func(i int, src *lfg.Source) Outcome {
		ref := rand.New(rand.NewSource(SampleSeed(seed, i)))
		for k := 0; k < perSample; k++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				return Outcome{Err: fmt.Errorf("sample %d draw %d: %d, want %d", i, k, got, want)}
			}
		}
		return Outcome{}
	}); err != nil {
		t.Fatal(err)
	}
}
