package bitmat

import (
	"math/rand"
	"testing"
)

func TestRowBasics(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 130} {
		r := NewRow(cols)
		if len(r) != Words(cols) {
			t.Fatalf("cols=%d: %d words, want %d", cols, len(r), Words(cols))
		}
		if r.Any() {
			t.Fatalf("cols=%d: fresh row not empty", cols)
		}
		r.Set(0)
		r.Set(cols - 1)
		if !r.Get(0) || !r.Get(cols-1) {
			t.Fatalf("cols=%d: Set/Get mismatch", cols)
		}
		if got := PopCount(r); got != 2 && !(cols == 1 && got == 1) {
			t.Fatalf("cols=%d: popcount %d", cols, got)
		}
		r.Clear(0)
		if r.Get(0) {
			t.Fatalf("cols=%d: Clear failed", cols)
		}
		r.Zero()
		if r.Any() {
			t.Fatalf("cols=%d: Zero failed", cols)
		}
	}
}

// TestOpsAgainstBoolSlices cross-checks every word op against the naive
// []bool implementation on random rows spanning word boundaries.
func TestOpsAgainstBoolSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(200)
		a, b := NewRow(cols), NewRow(cols)
		av, bv := make([]bool, cols), make([]bool, cols)
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 0 {
				a.Set(c)
				av[c] = true
			}
			if rng.Intn(3) == 0 {
				b.Set(c)
				bv[c] = true
			}
		}
		wantAndNot, wantSubset, wantFirst, wantPop := false, true, -1, 0
		for c := 0; c < cols; c++ {
			if av[c] && !bv[c] {
				wantAndNot = true
				wantSubset = false
			}
			if av[c] && bv[c] && wantFirst < 0 {
				wantFirst = c
			}
			if av[c] {
				wantPop++
			}
		}
		if AndNotAny(a, b) != wantAndNot {
			t.Fatalf("trial %d: AndNotAny mismatch", trial)
		}
		if SubsetOf(a, b) != wantSubset {
			t.Fatalf("trial %d: SubsetOf mismatch", trial)
		}
		if got := FirstAnd(a, b); got != wantFirst {
			t.Fatalf("trial %d: FirstAnd %d, want %d", trial, got, wantFirst)
		}
		if got := PopCount(a); got != wantPop {
			t.Fatalf("trial %d: PopCount %d, want %d", trial, got, wantPop)
		}
		if Equal(a, b) != (wantPop == PopCount(b) && !wantAndNot && !AndNotAny(b, a)) {
			t.Fatalf("trial %d: Equal mismatch", trial)
		}
		// Or must equal the element-wise union.
		u := NewRow(cols)
		copy(u, a)
		u.Or(b)
		for c := 0; c < cols; c++ {
			if u.Get(c) != (av[c] || bv[c]) {
				t.Fatalf("trial %d: Or mismatch at %d", trial, c)
			}
		}
	}
}

func TestMatrix(t *testing.T) {
	m := New(3, 70)
	m.Set(0, 0)
	m.Set(1, 69)
	m.Set(2, 64)
	if !m.Get(0, 0) || !m.Get(1, 69) || !m.Get(2, 64) || m.Get(0, 1) {
		t.Fatal("Matrix Set/Get mismatch")
	}
	if PopCount(m.Row(1)) != 1 {
		t.Fatal("row view wrong")
	}
	m.Clear(1, 69)
	if m.Get(1, 69) {
		t.Fatal("Clear failed")
	}
	m.Fill()
	for r := 0; r < 3; r++ {
		if PopCount(m.Row(r)) != 70 {
			t.Fatalf("Fill row %d: %d bits", r, PopCount(m.Row(r)))
		}
	}
	// Fill must keep the trailing bits zero so Equal works word-at-a-time.
	full := New(1, 70)
	for c := 0; c < 70; c++ {
		full.Set(0, c)
	}
	if !Equal(m.Row(0), full.Row(0)) {
		t.Fatal("Fill set trailing garbage bits")
	}
}

func TestFillExactWordBoundary(t *testing.T) {
	m := New(2, 128)
	m.Fill()
	if PopCount(m.Row(0)) != 128 || PopCount(m.Row(1)) != 128 {
		t.Fatal("Fill on word-aligned width wrong")
	}
}
