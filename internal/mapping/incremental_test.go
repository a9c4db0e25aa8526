package mapping

// Warm-vs-cold parity for a reused ColumnScratch: its transposed view and
// its projected map, projected in full on a call's first attempt and only
// where perturb moved a column on its retries, must stay bit-identical to
// cold rebuilds across arbitrary Set / Regenerate sequences between calls.
// The cold reference always runs against a clone of the defect map, a
// distinct map the reused scratch has never seen.

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/defect"
	"repro/internal/randfunc"
	"repro/internal/xbar"
)

// cloneMap copies a defect map cell by cell into a fresh Map.
func cloneMap(m *defect.Map) *defect.Map {
	out := defect.NewMap(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(r, c, m.At(r, c))
		}
	}
	return out
}

// mutate applies one random step of the kinds the hot loops produce:
// full-trial Regenerate, sparse manual Sets, or nothing at all.
func mutate(t *testing.T, dm *defect.Map, rng *rand.Rand, step int) {
	t.Helper()
	switch step % 4 {
	case 0, 1:
		if err := dm.Regenerate(defect.Params{POpen: 0.1, PClosed: 0.02}, rng); err != nil {
			t.Fatal(err)
		}
	case 2:
		for n := rng.Intn(4); n >= 0; n-- {
			dm.Set(rng.Intn(dm.Rows), rng.Intn(dm.Cols), defect.Kind(rng.Intn(3)))
		}
	case 3:
		// No mutation: the next call sees the map it saw last.
	}
}

// TestIncrementalColumnViewMatchesFull drives a reused ColumnScratch through
// random mutation sequences on the fabric map and checks the transposed
// functional view each call leaves behind against a full transpose of the
// current map.
func TestIncrementalColumnViewMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecFor(l)
	spec.InputPairs += 2
	dm := defect.NewMap(130, spec.Cols())
	s := NewColumnScratch()
	for step := 0; step < 60; step++ {
		mutate(t, dm, rng, step)
		if _, err := ColumnAwareScratch(l, dm, spec, ColumnOptions{Seed: int64(step), Retries: 2}, s); err != nil {
			t.Fatal(err)
		}
		want := bitmat.TransposeInto(nil, dm.FunctionalMatrix())
		for c := 0; c < dm.Cols; c++ {
			if !bitmat.Equal(s.colsView.Row(c), want.Row(c)) {
				t.Fatalf("step %d: incremental column view diverged at column %d", step, c)
			}
		}
	}
}

// TestColumnAwareIncrementalMatchesFresh runs the full column-aware search
// on a reused scratch across mutation sequences — exercising the
// diff-based projection across retries — against a fresh run on a cloned
// map each step.
func TestColumnAwareIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecFor(l)
	spec.InputPairs += 2
	spec.OutputPairs++
	dm := defect.NewMap(l.Rows+3, spec.Cols())
	s := NewColumnScratch()
	for step := 0; step < 40; step++ {
		mutate(t, dm, rng, step)
		opt := ColumnOptions{Seed: int64(step), Retries: 6}
		got, err := ColumnAwareScratch(l, dm, spec, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ColumnAware(l, cloneMap(dm), spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Valid != want.Valid || got.Attempts != want.Attempts || got.Reason != want.Reason {
			t.Fatalf("step %d: outcome diverged: warm {%v %d %q} vs fresh {%v %d %q}",
				step, got.Valid, got.Attempts, got.Reason, want.Valid, want.Attempts, want.Reason)
		}
		if !got.Valid {
			continue
		}
		for i := range want.Columns.InputPair {
			if got.Columns.InputPair[i] != want.Columns.InputPair[i] {
				t.Fatalf("step %d: input pair %d diverged", step, i)
			}
		}
		for i := range want.Columns.OutputPair {
			if got.Columns.OutputPair[i] != want.Columns.OutputPair[i] {
				t.Fatalf("step %d: output pair %d diverged", step, i)
			}
		}
		for r := range want.Rows.Assignment {
			if got.Rows.Assignment[r] != want.Rows.Assignment[r] {
				t.Fatalf("step %d: row assignment diverged at %d", step, r)
			}
		}
		for r := 0; r < want.Projected.Rows; r++ {
			for c := 0; c < want.Projected.Cols; c++ {
				if got.Projected.At(r, c) != want.Projected.At(r, c) {
					t.Fatalf("step %d: projected map diverged at (%d,%d)", step, r, c)
				}
			}
		}
	}
}

// TestScratchSteadyStateZeroAllocs pins the Monte Carlo trial-loop contract
// on the row algorithms directly: Regenerate + HBAScratch and Regenerate +
// ExactScratch on warm scratches allocate nothing.
func TestScratchSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		t.Fatal(err)
	}
	dm := defect.NewMap(l.Rows+2, l.Cols)
	p, err := NewProblem(l, dm)
	if err != nil {
		t.Fatal(err)
	}
	params := defect.Params{POpen: 0.1}
	for _, algo := range []struct {
		name string
		run  func(*Problem, *Scratch) Result
	}{
		{"hba", HBAScratch},
		{"ea", ExactScratch},
	} {
		scratch := NewScratch()
		if err := dm.Regenerate(params, rng); err != nil {
			t.Fatal(err)
		}
		algo.run(p, scratch) // warm the buffers
		allocs := testing.AllocsPerRun(30, func() {
			if err := dm.Regenerate(params, rng); err != nil {
				t.Fatal(err)
			}
			algo.run(p, scratch)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state trial allocates %v per run, want 0", algo.name, allocs)
		}
	}
}
