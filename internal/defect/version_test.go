package defect

import (
	"math/rand"
	"testing"

	"repro/internal/lfg"
)

// TestDeltaWindowSet pins the version counter's effective-change semantics
// under Set: every change of a cell's kind advances it once, a write of the
// current kind does not.
func TestDeltaWindowSet(t *testing.T) {
	m := NewMap(70, 130)
	v0 := m.Version()

	m.Set(3, 100, StuckOpen)
	m.Set(65, 10, StuckClosed)
	m.Set(65, 10, StuckClosed) // same kind: no effective change
	if m.Version() != v0+2 {
		t.Fatalf("version advanced %d times, want 2", m.Version()-v0)
	}
	// Reverting a cell to OK is also a change.
	m.Set(3, 100, OK)
	if m.Version() != v0+3 {
		t.Fatal("clearing a defect must advance the version")
	}
}

// TestRegenerateDeltaZeroAllocs pins that regeneration is allocation-free
// (the Monte Carlo trial loop contract), from the harness's bulk source and
// from a *rand.Rand, and across a Params change.
func TestRegenerateDeltaZeroAllocs(t *testing.T) {
	m := NewMap(300, 44)
	p, q := Params{POpen: 0.1}, Params{POpen: 0.1, PClosed: 0.01}
	for _, src := range []Source{lfg.New(5), rand.New(rand.NewSource(5))} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := m.Regenerate(p, src); err != nil {
				t.Fatal(err)
			}
			if err := m.Regenerate(q, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Regenerate from %T allocates %v per trial, want 0", src, allocs)
		}
	}
}

// TestVersionStableWhenUnchanged pins the skip contract consumers rely on:
// equal versions guarantee identical contents, so writes of the current kind
// must not advance the version.
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
