package experiments

import (
	"math"
	"testing"
)

// The golden studies run at cmd/experiments' defaults.
const (
	goldenSamples = 200
	goldenSeed    = 2018
	goldenRate    = 0.10
)

// successes converts a Psucc back to its success count out of goldenSamples.
func successes(psucc float64) int { return int(math.Round(psucc * goldenSamples)) }

// TestStudyCountsGolden pins the success counts of the paper's Monte Carlo
// studies — Table II, the Section VI redundancy/yield sweep on rd53 and the
// multi-level study on rd53 — on the engine-free path. The counts are data,
// not a second copy of the trial code, so a change to the job body, the
// defect sampler or the rng stream shows here as a count that moved. A
// change that alters covers or algorithms on purpose updates the counts and
// names the cause.
func TestStudyCountsGolden(t *testing.T) {
	rows, err := Table2(Table2Options{Samples: goldenSamples, DefectRate: goldenRate, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	// HBA and EA successes out of 200 per Table II circuit.
	wantTable2 := map[string][2]int{
		"rd53": {177, 193}, "squar5": {200, 200}, "bw": {199, 199}, "inc": {200, 200},
		"misex1": {200, 200}, "sqrt8": {199, 200}, "sao2": {184, 196}, "rd73": {120, 162},
		"clip": {195, 199}, "rd84": {162, 178}, "ex1010": {200, 200}, "table3": {199, 200},
		"misex3c": {200, 200}, "exp5": {199, 199}, "apex4": {200, 200}, "alu4": {200, 200},
	}
	if len(rows) != len(wantTable2) {
		t.Fatalf("Table II rows = %d, want %d", len(rows), len(wantTable2))
	}
	for _, r := range rows {
		got := [2]int{successes(r.HBA.Psucc), successes(r.EA.Psucc)}
		if want, ok := wantTable2[r.Name]; !ok || got != want {
			t.Errorf("Table II %s: HBA/EA successes = %v, want %v", r.Name, got, want)
		}
	}

	spares, rates := []int{0, 1, 2, 4, 8}, []float64{0.05, 0.10, 0.15, 0.20}
	points, err := Yield("rd53", spares, rates, goldenSamples, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	// HBA successes out of 200 per spare-row count, one column per rate.
	wantYield := [][4]int{
		{196, 155, 51, 2},
		{200, 189, 81, 10},
		{200, 198, 129, 20},
		{200, 200, 166, 49},
		{200, 200, 199, 125},
	}
	if len(points) != len(spares)*len(rates) {
		t.Fatalf("yield points = %d, want %d", len(points), len(spares)*len(rates))
	}
	for i, pt := range points {
		s, r := i/len(rates), i%len(rates)
		if pt.SpareRows != spares[s] || pt.DefectRate != rates[r] {
			t.Fatalf("yield point %d is (%d, %v), want (%d, %v)", i, pt.SpareRows, pt.DefectRate, spares[s], rates[r])
		}
		if got, want := successes(pt.Psucc), wantYield[s][r]; got != want {
			t.Errorf("yield rd53 spares=%d rate=%.2f: successes = %d, want %d", pt.SpareRows, pt.DefectRate, got, want)
		}
	}

	ml, err := MultiLevelMapping(MLOptions{
		Samples: goldenSamples, DefectRate: goldenRate, Seed: goldenSeed, Circuits: []string{"rd53"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [2]int{successes(ml[0].HBA.Psucc), successes(ml[0].EA.Psucc)}, [2]int{194, 200}; got != want {
		t.Errorf("multi-level rd53: HBA/EA successes = %v, want %v", got, want)
	}
}

// TestAblationCountsGolden pins the success counts of the five Ablation
// variants (greedy only, +backtracking, +exact outputs, +density order,
// +scarcity order) on rd53 and rd73 at the golden defaults. Every variant
// runs on the one HBA body, so a change to how it finds candidate rows
// must leave each variant's Psucc alone.
func TestAblationCountsGolden(t *testing.T) {
	want := map[string][5]int{
		"rd53": {91, 132, 180, 180, 185},
		"rd73": {4, 100, 139, 139, 120},
	}
	for _, circuit := range []string{"rd53", "rd73"} {
		rows, err := Ablation(circuit, goldenSamples, goldenRate, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want[circuit]) {
			t.Fatalf("%s: %d ablation rows, want %d", circuit, len(rows), len(want[circuit]))
		}
		var got [5]int
		for i, r := range rows {
			got[i] = successes(r.Psucc)
		}
		if got != want[circuit] {
			t.Errorf("%s: ablation successes = %v, want %v", circuit, got, want[circuit])
		}
	}
}
