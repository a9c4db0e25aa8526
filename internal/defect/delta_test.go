package defect

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/lfg"
)

// deltaWindowExact replays the window contract by brute force: snapshot the
// map, mutate it however the caller likes, then check that every cell that
// changed lies on a (DeltaRows, DeltaCols) line — unless DeltaAll says the
// whole map is dirty, which is always a correct answer.
func checkWindowCovers(t *testing.T, m *Map, before []Kind, context string) {
	t.Helper()
	if m.DeltaAll() {
		return
	}
	rows, cols := m.DeltaRows(), m.DeltaCols()
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c) != before[r*m.Cols+c] {
				if !rows.Get(r) {
					t.Fatalf("%s: cell (%d,%d) changed but row %d is not in the window", context, r, c, r)
				}
				if !cols.Get(c) {
					t.Fatalf("%s: cell (%d,%d) changed but column %d is not in the window", context, r, c, c)
				}
			}
		}
	}
}

func snapshotCells(m *Map) []Kind {
	out := make([]Kind, m.Rows*m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out[r*m.Cols+c] = m.At(r, c)
		}
	}
	return out
}

// TestDeltaWindowFreshMap pins the initial state: a fresh map is all-dirty
// until some consumer builds its view and opens a window.
func TestDeltaWindowFreshMap(t *testing.T) {
	m := NewMap(10, 10)
	if !m.DeltaAll() {
		t.Fatal("fresh map must report DeltaAll")
	}
	m.ResetDelta()
	if m.DeltaAll() {
		t.Fatal("ResetDelta must clear DeltaAll")
	}
	if m.DeltaBase() != m.Version() {
		t.Fatal("ResetDelta must rebase the window at the current version")
	}
}

// TestDeltaWindowSet pins Set's O(1) marking and the version counter's
// effective-change semantics.
func TestDeltaWindowSet(t *testing.T) {
	m := NewMap(70, 130)
	m.ResetDelta()
	v0 := m.Version()

	m.Set(3, 100, StuckOpen)
	m.Set(65, 10, StuckClosed)
	m.Set(65, 10, StuckClosed) // same kind: no effective change
	if m.Version() != v0+2 {
		t.Fatalf("version advanced %d times, want 2", m.Version()-v0)
	}
	wantRows := []int{3, 65}
	wantCols := []int{10, 100}
	if got := bitmat.PopCount(m.DeltaRows()); got != len(wantRows) {
		t.Fatalf("window has %d dirty rows, want %d", got, len(wantRows))
	}
	for _, r := range wantRows {
		if !m.DeltaRows().Get(r) {
			t.Fatalf("row %d missing from the window", r)
		}
	}
	for _, c := range wantCols {
		if !m.DeltaCols().Get(c) {
			t.Fatalf("column %d missing from the window", c)
		}
	}

	// Reverting a cell to OK is also a change and must mark again after a
	// fresh window.
	m.ResetDelta()
	m.Set(3, 100, OK)
	if !m.DeltaRows().Get(3) || !m.DeltaCols().Get(100) {
		t.Fatal("clearing a defect must mark the window")
	}
}

// TestDeltaWindowReset pins that Reset degrades to all-dirty (it rewrites
// every cell) except when the map is already all-functional, in which case
// nothing changed and the window — and version — stay put.
func TestDeltaWindowReset(t *testing.T) {
	m := NewMap(8, 8)
	m.Set(1, 1, StuckOpen)
	m.ResetDelta()
	v := m.Version()
	m.Reset()
	if !m.DeltaAll() {
		t.Fatal("Reset of a defective map must set DeltaAll")
	}
	if m.Version() == v {
		t.Fatal("Reset of a defective map must advance the version")
	}
	m.ResetDelta()
	v = m.Version()
	m.Reset() // already all-functional: a no-op
	if m.DeltaAll() || m.Version() != v {
		t.Fatal("Reset of an all-functional map must not disturb the window")
	}
}

// TestRegenerateDelta is the incremental-vs-full property for Regenerate:
// across a random sequence of trials and manual Sets, (1) the resampled maps
// are bit-identical to a never-tracked twin fed the same rng stream, and
// (2) the reported window always covers the true cell diff.
func TestRegenerateDelta(t *testing.T) {
	const rows, cols = 70, 45
	p := Params{POpen: 0.1, PClosed: 0.03}
	tracked := NewMap(rows, cols)
	twin := NewMap(rows, cols)
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	tracked.ResetDelta()

	for trial := 0; trial < 40; trial++ {
		before := snapshotCells(tracked)
		if err := tracked.Regenerate(p, rngA); err != nil {
			t.Fatal(err)
		}
		if err := twin.Regenerate(p, rngB); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if tracked.At(r, c) != twin.At(r, c) {
					t.Fatalf("trial %d: delta tracking changed the sampled map at (%d,%d)", trial, r, c)
				}
			}
		}
		checkWindowCovers(t, tracked, before, "after Regenerate")
		if trial%3 == 0 {
			// Interleave manual mutations; the window must accumulate them
			// alongside the next Regenerate's diff.
			tracked.Set(trial%rows, (trial*7)%cols, StuckClosed)
			twin.Set(trial%rows, (trial*7)%cols, StuckClosed)
			checkWindowCovers(t, tracked, before, "after Regenerate+Set")
		}
		if trial%5 == 0 {
			tracked.ResetDelta() // a consumer refreshed its view
		}
	}
}

// TestRegenerateDeltaZeroAllocs pins that window-tracked regeneration is
// allocation-free (the Monte Carlo trial loop contract), from the harness's
// bulk source and from a *rand.Rand, and across a Params change.
func TestRegenerateDeltaZeroAllocs(t *testing.T) {
	m := NewMap(300, 44)
	p, q := Params{POpen: 0.1}, Params{POpen: 0.1, PClosed: 0.01}
	for _, src := range []Source{lfg.New(5), rand.New(rand.NewSource(5))} {
		m.ResetDelta()
		allocs := testing.AllocsPerRun(50, func() {
			if err := m.Regenerate(p, src); err != nil {
				t.Fatal(err)
			}
			m.ResetDelta()
			if err := m.Regenerate(q, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("tracked Regenerate from %T allocates %v per trial, want 0", src, allocs)
		}
	}
}

// TestVersionStableWhenUnchanged pins the skip contract consumers rely on:
// equal versions guarantee identical contents, so writes of the current kind
// and no-op Resets must not advance the version.
func TestVersionStableWhenUnchanged(t *testing.T) {
	m := NewMap(6, 6)
	m.Set(2, 2, StuckOpen)
	v := m.Version()
	m.Set(2, 2, StuckOpen)
	m.Set(3, 3, OK)
	if m.Version() != v {
		t.Fatal("no-effect writes must not advance the version")
	}
}
