package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestTable2EngineMatchesSerial is the acceptance check for the engine
// rewiring: routing the Table II study through the parallel engine must
// reproduce the serial path's Psucc columns exactly (timing columns are
// wall-clock and may differ).
func TestTable2EngineMatchesSerial(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	only := []string{"rd53", "misex1"}
	opt := Table2Options{Samples: 20, Seed: 2018, Only: only}
	serial, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = e
	parallel, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != 2 {
		t.Fatalf("row counts: serial=%d engine=%d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name || s.Inputs != p.Inputs || s.Outputs != p.Outputs ||
			s.Products != p.Products || s.Area != p.Area || s.IR != p.IR {
			t.Errorf("row %d geometry differs: %+v vs %+v", i, s, p)
		}
		if s.HBA.Psucc != p.HBA.Psucc || s.EA.Psucc != p.EA.Psucc {
			t.Errorf("%s Psucc differs: HBA %v/%v EA %v/%v",
				s.Name, s.HBA.Psucc, p.HBA.Psucc, s.EA.Psucc, p.EA.Psucc)
		}
	}
	// An Only filter selecting nothing is benign on both paths.
	empty, err := Table2(Table2Options{Samples: 5, Only: []string{"no-such"}, Engine: e})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty selection through engine = %v, %v", empty, err)
	}
}

func TestYieldEngineMatchesSerial(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	spares, rates := []int{0, 2}, []float64{0.05, 0.10}
	serial, err := Yield("rd53", spares, rates, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := YieldEngine(e, "rd53", spares, rates, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
	if _, err := YieldEngine(e, "no-such-circuit", spares, rates, 5, 1); err == nil {
		t.Error("unknown circuit must fail")
	}
}

func TestMultiLevelMappingEngineMatchesSerial(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	opt := MLOptions{Samples: 10, Seed: 5, Circuits: []string{"rd53"}}
	serial, err := MultiLevelMapping(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = e
	parallel, err := MultiLevelMapping(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 1 || len(parallel) != 1 {
		t.Fatalf("row counts: %d vs %d", len(serial), len(parallel))
	}
	s, p := serial[0], parallel[0]
	if s.Gates != p.Gates || s.Wires != p.Wires || s.Area != p.Area ||
		s.HBA.Psucc != p.HBA.Psucc || s.EA.Psucc != p.EA.Psucc {
		t.Errorf("rows differ: %+v vs %+v", s, p)
	}
}

// jobRateErr is the error the engine's monte-carlo-yield job fails with on
// the given defect rates — the message every serial study must fail with
// too, instead of reporting the invalid rate as Psucc 0.
func jobRateErr(t *testing.T, e *engine.Engine, open, closed float64) string {
	t.Helper()
	results, err := e.Run(context.Background(), []engine.JobSpec{{
		Kind: engine.MonteCarloYield, Benchmark: "rd53",
		OpenRate: open, ClosedRate: closed, Samples: 5, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == "" {
		t.Fatalf("engine accepted rates open=%v closed=%v", open, closed)
	}
	return results[0].Err
}

// wantRateErr fails the test unless err carries the engine job's message.
func wantRateErr(t *testing.T, study string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: err = %v, want one carrying %q", study, err, want)
	}
}

func TestYieldInvalidRateFails(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	want := jobRateErr(t, e, 1.5, 0)
	_, err := Yield("bw", []int{0}, []float64{1.5}, 10, 1)
	wantRateErr(t, "Yield", err, want)
	_, err = YieldEngine(e, "bw", []int{0}, []float64{1.5}, 10, 1)
	wantRateErr(t, "YieldEngine", err, want)
}

func TestTable2InvalidRateFails(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	want := jobRateErr(t, e, -0.2, 0)
	for _, opt := range []Table2Options{
		{Samples: 5, DefectRate: -0.2, Only: []string{"rd53"}},
		{Samples: 5, DefectRate: -0.2, Only: []string{"rd53"}, Engine: e},
	} {
		_, err := Table2(opt)
		wantRateErr(t, fmt.Sprintf("Table2 (engine=%v)", opt.Engine != nil), err, want)
	}
}

func TestAblationInvalidRateFails(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	_, err := Ablation("rd53", 5, 1.5, 1)
	wantRateErr(t, "Ablation", err, jobRateErr(t, e, 1.5, 0))
}

func TestClosedToleranceInvalidRateFails(t *testing.T) {
	e := engine.New(engine.Options{CacheSize: -1})
	defer e.Close()
	_, err := ClosedTolerance("rd53", []float64{0.98}, []int{0}, []int{0}, 0.05, 5, 1)
	wantRateErr(t, "ClosedTolerance", err, jobRateErr(t, e, 0.05, 0.98))
}
