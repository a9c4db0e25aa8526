package memxbar

import (
	"context"
	"math"
	"strings"
	"testing"
)

func fig3Function(t *testing.T) *Function {
	t.Helper()
	f, err := ParseFunction(8, 1,
		"1-------", "-1------", "--1-----", "---1----", "----1111")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestQuickstartFlow(t *testing.T) {
	f := fig3Function(t)
	if f.Inputs() != 8 || f.Outputs() != 1 || f.Products() != 5 {
		t.Fatalf("dims wrong: %d/%d/%d", f.Inputs(), f.Outputs(), f.Products())
	}
	two, err := SynthesizeTwoLevel(f)
	if err != nil {
		t.Fatal(err)
	}
	if two.Area() != 108 {
		t.Errorf("two-level area = %d, want 108", two.Area())
	}
	multi, err := SynthesizeMultiLevel(f, MultiLevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Area() != 57 {
		t.Errorf("multi-level area = %d, want 57 (Fig. 5)", multi.Area())
	}
	if !multi.MultiLevel() || two.MultiLevel() {
		t.Error("MultiLevel flags wrong")
	}
	for i := 0; i < 256; i++ {
		x := make([]bool, 8)
		for k := range x {
			x[k] = i&(1<<uint(k)) != 0
		}
		want := f.Eval(x)[0]
		ya, err := two.Simulate(x)
		if err != nil {
			t.Fatal(err)
		}
		yb, err := multi.Simulate(x)
		if err != nil {
			t.Fatal(err)
		}
		if ya[0] != want || yb[0] != want {
			t.Fatalf("simulation mismatch at %v: two=%v multi=%v want=%v", x, ya[0], yb[0], want)
		}
	}
}

func TestDualSelection(t *testing.T) {
	f := fig3Function(t)
	d, usedComplement, err := SynthesizeDual(f)
	if err != nil {
		t.Fatal(err)
	}
	if !usedComplement {
		t.Error("the complement (4 products) should win for the Fig. 3 function")
	}
	two, _ := SynthesizeTwoLevel(f)
	if d.Area() >= two.Area() {
		t.Errorf("dual area %d should beat direct %d", d.Area(), two.Area())
	}
}

// TestGenerateDefectsRejectsNonFiniteRates: NaN and ±Inf rates are errors,
// not a defect-free fabric.
func TestGenerateDefectsRejectsNonFiniteRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, rates := range [][2]float64{{nan, 0}, {0, nan}, {inf, 0}, {0, inf}, {-inf, 0}, {0.1, -inf}} {
		if dm, err := GenerateDefects(8, 8, rates[0], rates[1], 1); err == nil {
			t.Errorf("open %v closed %v: accepted, %v", rates[0], rates[1], dm)
		}
	}
}

func TestDefectMappingFlow(t *testing.T) {
	f, err := ParseFunction(3, 2, "11- 10", "-01 10", "0-0 01", "-11 01")
	if err != nil {
		t.Fatal(err)
	}
	design, err := SynthesizeTwoLevel(f)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := GenerateDefects(design.Rows(), design.Cols(), 0.10, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := design.MapDefects(dm, HBA)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid {
		t.Skipf("this seed's defect map is unmappable: %s", m.Reason)
	}
	for i := 0; i < 8; i++ {
		x := []bool{i&1 != 0, i&2 != 0, i&4 != 0}
		y, err := design.SimulateMapped(x, dm, m)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Eval(x)
		if y[0] != want[0] || y[1] != want[1] {
			t.Fatalf("mapped crossbar wrong at %v", x)
		}
	}
}

func TestTargetedFaultInjection(t *testing.T) {
	f := fig3Function(t)
	design, _ := SynthesizeTwoLevel(f)
	dm := NewDefectMap(design.Rows(), design.Cols())
	dm.SetStuckOpen(0, 0)
	naive, err := design.MapDefects(dm, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Valid {
		t.Error("naive mapping must fail when row 0 needs the defective device")
	}
	hba, err := design.MapDefects(dm, HBA)
	if err != nil {
		t.Fatal(err)
	}
	if !hba.Valid {
		t.Errorf("HBA must route around a single open defect: %s", hba.Reason)
	}
}

func TestBenchmarkAccess(t *testing.T) {
	names := BenchmarkNames()
	if len(names) < 16 {
		t.Fatalf("too few benchmarks: %d", len(names))
	}
	f, err := Benchmark("rd53")
	if err != nil {
		t.Fatal(err)
	}
	if f.Inputs() != 5 || f.Outputs() != 3 || f.Products() != 31 {
		t.Errorf("rd53 dims = %d/%d/%d", f.Inputs(), f.Outputs(), f.Products())
	}
	if _, err := Benchmark("nonexistent"); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestParsePLA(t *testing.T) {
	src := ".i 2\n.o 1\n.p 2\n10 1\n01 1\n.e\n"
	f, err := ParsePLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Products() != 2 {
		t.Errorf("products = %d, want 2", f.Products())
	}
	if !f.Eval([]bool{true, false})[0] || f.Eval([]bool{true, true})[0] {
		t.Error("parsed PLA mis-evaluates")
	}
}

func TestMinimizeAndComplement(t *testing.T) {
	f, _ := ParseFunction(2, 1, "11", "10")
	m := f.Minimize()
	if m.Products() != 1 {
		t.Errorf("x1x2+x1x̄2 should minimize to one product, got %d", m.Products())
	}
	c := f.Complement()
	for i := 0; i < 4; i++ {
		x := []bool{i&1 != 0, i&2 != 0}
		if f.Eval(x)[0] == c.Eval(x)[0] {
			t.Error("complement wrong")
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if HBA.String() != "HBA" || Exact.String() != "EA" || Naive.String() != "naive" {
		t.Error("Algorithm.String wrong")
	}
	if Algorithm(99).String() != "unknown" {
		t.Error("unknown algorithm string wrong")
	}
}

func TestRenderAndStringers(t *testing.T) {
	f := fig3Function(t)
	d, _ := SynthesizeTwoLevel(f)
	if !strings.Contains(d.Render(), "#") {
		t.Error("render should show active devices")
	}
	if f.String() == "" {
		t.Error("function string empty")
	}
	dm := NewDefectMap(2, 2)
	dm.SetStuckClosed(0, 1)
	if !strings.Contains(dm.String(), "x") {
		t.Error("defect map string should show the closed device")
	}
}

func TestMapDefectsValidation(t *testing.T) {
	f := fig3Function(t)
	d, _ := SynthesizeTwoLevel(f)
	dm := NewDefectMap(2, 2) // wrong dims
	if _, err := d.MapDefects(dm, HBA); err == nil {
		t.Error("dimension mismatch must fail")
	}
	good := NewDefectMap(d.Rows(), d.Cols())
	if _, err := d.MapDefects(good, Algorithm(12)); err == nil {
		t.Error("unknown algorithm must fail")
	}
	m := &Mapping{Valid: false}
	if _, err := d.SimulateMapped(make([]bool, 8), good, m); err == nil {
		t.Error("simulating an invalid mapping must fail")
	}
}

func TestEnginePublicAPI(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	f := fig3Function(t)
	results, err := eng.Run(context.Background(), []Job{
		NewJob(JobSynthTwoLevel, f),
		{Kind: JobSynthTwoLevel, Benchmark: "rd53"},
		{Kind: JobMonteCarloYield, Benchmark: "rd53", OpenRate: 0.10, Samples: 10, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("job %d: %s", i, r.Err)
		}
	}
	// The running example's two-level geometry (Fig. 3) and rd53's Table I
	// area anchor the engine to the one-shot API.
	d, _ := SynthesizeTwoLevel(f)
	if results[0].Area != d.Area() {
		t.Errorf("engine area %d != design area %d", results[0].Area, d.Area())
	}
	if results[1].Area != 544 {
		t.Errorf("rd53 area = %d, want 544", results[1].Area)
	}
	if results[2].Samples != 10 {
		t.Errorf("monte carlo samples = %d", results[2].Samples)
	}
	if st := eng.Stats(); st.Completed != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Streaming submit: results arrive over the batch channel.
	b, err := eng.Submit(context.Background(), []Job{NewJob(JobSynthMultiLevel, f)})
	if err != nil {
		t.Fatal(err)
	}
	r := <-b.Results
	if r.Err != "" || r.Gates == 0 {
		t.Errorf("streamed result = %+v", r)
	}
}
