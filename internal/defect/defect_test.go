package defect

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenerateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, err := Generate(200, 200, Params{POpen: 0.10, PClosed: 0.02}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summarize()
	if math.Abs(s.OpenRate-0.10) > 0.01 {
		t.Errorf("open rate = %v, want ~0.10", s.OpenRate)
	}
	if math.Abs(s.ClosedRate-0.02) > 0.005 {
		t.Errorf("closed rate = %v, want ~0.02", s.ClosedRate)
	}
}

// TestGenerateValidation: out-of-range rates are errors, through Generate
// and Regenerate alike, and a rejected Regenerate leaves the map alone.
// NaN compares false with both bounds of a range check, and ±Inf with one,
// so they are listed explicitly.
func TestGenerateValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Params{
		{POpen: -0.1}, {POpen: 0.7, PClosed: 0.4},
		{POpen: nan}, {PClosed: nan}, {POpen: nan, PClosed: nan}, {POpen: 0.1, PClosed: nan},
		{POpen: inf}, {PClosed: inf}, {POpen: -inf}, {PClosed: -inf}, {POpen: inf, PClosed: -inf},
	} {
		if _, err := Generate(2, 2, p, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("Generate accepted %+v", p)
		}
		m := NewMap(2, 2)
		if err := m.Regenerate(p, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("Regenerate accepted %+v", p)
		}
		if s := m.Summarize(); s.Open != 0 || s.Closed != 0 {
			t.Errorf("rejected %+v still changed the map: %+v", p, s)
		}
	}
	if _, err := Generate(2, 2, Params{}, nil); err == nil {
		t.Error("nil rng must fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(20, 20, Params{POpen: 0.1}, rand.New(rand.NewSource(5)))
	b, _ := Generate(20, 20, Params{POpen: 0.1}, rand.New(rand.NewSource(5)))
	if a.String() != b.String() {
		t.Error("same seed must give the same defect map")
	}
}

func TestRowColPoisoning(t *testing.T) {
	m := NewMap(4, 5)
	m.Set(2, 3, StuckClosed)
	if !m.RowHasClosed(2) || m.RowHasClosed(1) {
		t.Error("RowHasClosed wrong")
	}
	if !m.ColHasClosed(3) || m.ColHasClosed(0) {
		t.Error("ColHasClosed wrong")
	}
	if !m.RowHasClosed(2) || m.RowHasClosed(0) {
		t.Error("RowHasClosed wrong")
	}
	s := m.Summarize()
	if s.PoisonedRow != 1 || s.PoisonedCol != 1 {
		t.Errorf("poisoned = %d/%d, want 1/1", s.PoisonedRow, s.PoisonedCol)
	}
}

func TestCrossbarMatrix(t *testing.T) {
	m := NewMap(2, 2)
	m.Set(0, 1, StuckOpen)
	m.Set(1, 0, StuckClosed)
	cm := m.CrossbarMatrix()
	if !cm[0][0] || cm[0][1] || cm[1][0] || !cm[1][1] {
		t.Errorf("CM = %v", cm)
	}
}

func TestStringRendering(t *testing.T) {
	m := NewMap(1, 3)
	m.Set(0, 1, StuckOpen)
	m.Set(0, 2, StuckClosed)
	if got := m.String(); got != ".ox\n" {
		t.Errorf("String = %q, want .ox\\n", got)
	}
	if StuckOpen.String() != "stuck-open" || StuckClosed.String() != "stuck-closed" || OK.String() != "ok" {
		t.Error("Kind.String wrong")
	}
}

func TestFunctionalAndAt(t *testing.T) {
	m := NewMap(3, 3)
	if !m.Functional(1, 1) {
		t.Error("fresh map must be functional")
	}
	m.Set(1, 1, StuckOpen)
	if m.Functional(1, 1) || m.At(1, 1) != StuckOpen {
		t.Error("Set/At roundtrip failed")
	}
}

func TestZeroDefectGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := Generate(10, 10, Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summarize()
	if s.Open != 0 || s.Closed != 0 {
		t.Error("zero-probability map must be clean")
	}
}
