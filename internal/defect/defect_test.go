package defect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// countKinds tallies the map's stuck-open and stuck-closed cells by At.
func countKinds(m *Map) (open, closed int) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			switch m.At(r, c) {
			case StuckOpen:
				open++
			case StuckClosed:
				closed++
			}
		}
	}
	return open, closed
}

func TestGenerateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, err := Generate(200, 200, Params{POpen: 0.10, PClosed: 0.02}, rng)
	if err != nil {
		t.Fatal(err)
	}
	open, closed := countKinds(m)
	if rate := float64(open) / (200 * 200); math.Abs(rate-0.10) > 0.01 {
		t.Errorf("open rate = %v, want ~0.10", rate)
	}
	if rate := float64(closed) / (200 * 200); math.Abs(rate-0.02) > 0.005 {
		t.Errorf("closed rate = %v, want ~0.02", rate)
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
		if open, closed := countKinds(m); open != 0 || closed != 0 {
			t.Errorf("rejected %+v still changed the map: %d open, %d closed", p, open, closed)
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
	if rows, cols := bitmat.PopCount(m.ClosedRows()), bitmat.PopCount(m.ClosedCols()); rows != 1 || cols != 1 {
		t.Errorf("poisoned = %d/%d, want 1/1", rows, cols)
	}
}

// TestFunctionalMatrixIsCM: the functional plane is the CM of the paper's
// Fig. 8(b) — a bit is set only for a programmable device, so stuck-open
// and stuck-closed devices both read 0.
func TestFunctionalMatrixIsCM(t *testing.T) {
	m := NewMap(2, 2)
	m.Set(0, 1, StuckOpen)
	m.Set(1, 0, StuckClosed)
	cm := m.FunctionalMatrix()
	if !cm.Get(0, 0) || cm.Get(0, 1) || cm.Get(1, 0) || !cm.Get(1, 1) {
		t.Errorf("CM rows = %b, %b", m.FunctionalRow(0), m.FunctionalRow(1))
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
	if open, closed := countKinds(m); open != 0 || closed != 0 {
		t.Error("zero-probability map must be clean")
	}
}
