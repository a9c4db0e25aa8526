package experiments

import (
	"testing"
	"time"

	"repro/internal/suite"
)

const suiteProfile = suite.Profile

func TestFig6Shapes(t *testing.T) {
	series, err := Fig6([]int{8, 10}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Samples) != 40 {
			t.Fatalf("n=%d: samples = %d, want 40", s.Inputs, len(s.Samples))
		}
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i].Products < s.Samples[i-1].Products {
				t.Fatal("samples must be sorted by product count")
			}
		}
		for _, smp := range s.Samples {
			if smp.TwoLevelArea != (smp.Products+1)*(2*s.Inputs+2) {
				t.Fatalf("two-level area model violated: %+v", smp)
			}
			if smp.MultiLevelArea <= 0 {
				t.Fatal("multi-level area must be positive")
			}
		}
		if s.SuccessRate < 0 || s.SuccessRate > 1 {
			t.Fatalf("success rate %v out of range", s.SuccessRate)
		}
	}
}

func TestFig6SuccessRateFallsWithInputs(t *testing.T) {
	// The paper's headline Fig. 6 trend: harder to beat two-level as the
	// input count grows. Checked with the endpoints and a margin.
	series, err := Fig6([]int{8, 15}, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	small, large := series[0].SuccessRate, series[1].SuccessRate
	if small <= large {
		t.Errorf("success rate should fall with input size: n=8 %.2f vs n=15 %.2f", small, large)
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.TwoLevel <= 0 || r.MultiLevel <= 0 || r.NegTwoLevel <= 0 || r.NegMultiLevel <= 0 {
			t.Fatalf("%s has non-positive areas: %+v", r.Name, r)
		}
	}
	// Two-level areas are a function of I, O, P alone: profile rows match
	// the paper exactly by construction; exact rows are regenerated through
	// our own minimizer, so they land within a 15% band of espresso's
	// product counts (sqrt8 and rd53's negation above the paper, the
	// negations of sqrt8 and rd84 below it).
	// Beating the paper's minimizer is fine; being >15% worse is not.
	within := func(got, paper int) bool {
		return got > 0 && float64(got) < float64(paper)*1.15
	}
	for _, r := range rows {
		if r.PaperTwoLevel == 0 {
			continue
		}
		if r.Kind == suiteProfile {
			if r.TwoLevel != r.PaperTwoLevel {
				t.Errorf("%s two-level area = %d, paper %d", r.Name, r.TwoLevel, r.PaperTwoLevel)
			}
			if r.NegTwoLevel != r.PaperNegTwoLevel {
				t.Errorf("%s negated two-level area = %d, paper %d", r.Name, r.NegTwoLevel, r.PaperNegTwoLevel)
			}
			continue
		}
		if !within(r.TwoLevel, r.PaperTwoLevel) {
			t.Errorf("%s two-level area = %d, paper %d (beyond 15%%)", r.Name, r.TwoLevel, r.PaperTwoLevel)
		}
		if !within(r.NegTwoLevel, r.PaperNegTwoLevel) {
			t.Errorf("%s negated two-level area = %d, paper %d (beyond 15%%)", r.Name, r.NegTwoLevel, r.PaperNegTwoLevel)
		}
	}
	// Shape: multi-level loses on the wide multi-output benchmarks...
	for _, name := range []string{"bw", "misex1", "rd84", "b12"} {
		r := byName[name]
		if r.MultiLevel <= r.TwoLevel {
			t.Errorf("%s: multi-level (%d) should exceed two-level (%d)", name, r.MultiLevel, r.TwoLevel)
		}
	}
	// ...and wins on the deep single-output stand-ins (the t481/cordic
	// phenomenon).
	for _, name := range []string{"t481", "cordic"} {
		r := byName[name]
		if r.MultiLevel >= r.TwoLevel {
			t.Errorf("%s: multi-level (%d) should beat two-level (%d)", name, r.MultiLevel, r.TwoLevel)
		}
	}
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := Table2(Table2Options{
		Samples: 30,
		Seed:    3,
		Only:    []string{"rd53", "misex1", "rd73"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		// Profile circuits match the paper's geometry exactly; exact
		// circuits go through our own minimizer and land within ~20%.
		if c, _ := suite.ByName(r.Name); c.Kind == suite.Profile {
			if r.Area != r.PaperArea {
				t.Errorf("%s area = %d, paper %d", r.Name, r.Area, r.PaperArea)
			}
		} else if float64(r.Area) > 1.2*float64(r.PaperArea) {
			t.Errorf("%s area = %d, paper %d (beyond 20%%)", r.Name, r.Area, r.PaperArea)
		}
		if r.HBA.Psucc < 0 || r.HBA.Psucc > 1 || r.EA.Psucc < 0 || r.EA.Psucc > 1 {
			t.Errorf("%s success rates out of range: %+v", r.Name, r)
		}
		// HBA is sound: it can never beat the exact algorithm.
		if r.HBA.Psucc > r.EA.Psucc+1e-9 {
			t.Errorf("%s: HBA Psucc %.2f exceeds EA %.2f", r.Name, r.HBA.Psucc, r.EA.Psucc)
		}
		if r.HBA.MeanTime <= 0 || r.EA.MeanTime <= 0 {
			t.Errorf("%s: timings missing", r.Name)
		}
	}
	// Easy circuit maps nearly always; rd73 (IR 0.34, 127 products) is the
	// hard one and must be strictly harder than misex1.
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["misex1"].EA.Psucc < 0.9 {
		t.Errorf("misex1 should map nearly always, got %.2f", byName["misex1"].EA.Psucc)
	}
	if byName["rd73"].EA.Psucc >= byName["misex1"].EA.Psucc {
		t.Errorf("rd73 (%.2f) should be harder than misex1 (%.2f)",
			byName["rd73"].EA.Psucc, byName["misex1"].EA.Psucc)
	}
}

func TestYieldMonotonicInSpares(t *testing.T) {
	points, err := Yield("rd53", []int{0, 8}, []float64{0.15}, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if points[1].Psucc < points[0].Psucc {
		t.Errorf("spare rows must not hurt yield: %v -> %v", points[0].Psucc, points[1].Psucc)
	}
}

func TestYieldUnknownCircuit(t *testing.T) {
	if _, err := Yield("nope", []int{0}, []float64{0.1}, 5, 1); err == nil {
		t.Error("unknown circuit must fail")
	}
}

func TestTable2Durations(t *testing.T) {
	rows, err := Table2(Table2Options{Samples: 10, Only: []string{"rd53"}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].HBA.MeanTime > time.Second {
		t.Errorf("rd53 HBA mean time suspiciously slow: %v", rows[0].HBA.MeanTime)
	}
}
