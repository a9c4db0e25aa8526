package montecarlo

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestRunBasics(t *testing.T) {
	s, err := Run(Options{Samples: 100, Seed: 1}, func(i int, rng *rand.Rand) Outcome {
		return Outcome{Success: i%2 == 0, Elapsed: time.Millisecond, Value: float64(i)}
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
	if s.Values[7] != 7 {
		t.Error("values must be in sample order")
	}
}

func TestRunDefaults(t *testing.T) {
	s, err := Run(Options{}, func(i int, rng *rand.Rand) Outcome { return Outcome{} })
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
	if _, err := Run(Options{Samples: -1}, func(i int, rng *rand.Rand) Outcome { return Outcome{} }); err == nil {
		t.Error("negative samples must fail")
	}
}

// TestRunTrialErrorFailsBatch: a trial reporting Err fails the whole batch
// with the first such error in sample order instead of counting as a
// failed sample.
func TestRunTrialErrorFailsBatch(t *testing.T) {
	_, err := Run(Options{Samples: 20}, func(i int, rng *rand.Rand) Outcome {
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
	collect := func() []float64 {
		s, err := Run(Options{Samples: 50, Seed: 42},
			func(i int, rng *rand.Rand) Outcome {
				return Outcome{Value: rng.Float64()}
			})
		if err != nil {
			t.Fatal(err)
		}
		return s.Values
	}
	seq := collect()
	seq2 := collect()
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
		func(i int, rng *rand.Rand) Outcome { return Outcome{} })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunFactoryPerWorkerState(t *testing.T) {
	// The factory is invoked once per batch, and a trial's private scratch
	// state persists across the batch's samples.
	factoryCalls := 0
	s, err := RunFactory(Options{Samples: 20, Seed: 3}, func() Trial {
		factoryCalls++
		claimed := 0
		return func(i int, rng *rand.Rand) Outcome {
			claimed++
			return Outcome{Value: rng.Float64(), Success: claimed > 0}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if factoryCalls != 1 {
		t.Fatalf("serial run built %d trials, want 1", factoryCalls)
	}
	// Same seeds through Run must reproduce the same values.
	plain, err := Run(Options{Samples: 20, Seed: 3}, func(i int, rng *rand.Rand) Outcome {
		return Outcome{Value: rng.Float64()}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Values {
		if s.Values[i] != plain.Values[i] {
			t.Fatalf("sample %d: factory path diverged from plain Run", i)
		}
	}
	if _, err := RunFactory(Options{Samples: 1}, nil); err == nil {
		t.Error("nil factory must fail")
	}
	if _, err := RunFactory(Options{Samples: 1}, func() Trial { return nil }); err == nil {
		t.Error("nil trial from factory must fail")
	}
}

func TestRunSamplesIndependentOfNeighbours(t *testing.T) {
	// The rng of sample i must not depend on how many samples run.
	small, _ := Run(Options{Samples: 5, Seed: 7}, func(i int, rng *rand.Rand) Outcome {
		return Outcome{Value: rng.Float64()}
	})
	big, _ := Run(Options{Samples: 50, Seed: 7}, func(i int, rng *rand.Rand) Outcome {
		return Outcome{Value: rng.Float64()}
	})
	for i := 0; i < 5; i++ {
		if small.Values[i] != big.Values[i] {
			t.Fatalf("sample %d changed with batch size", i)
		}
	}
}
