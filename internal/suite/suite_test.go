package suite

import (
	"math"
	"testing"

	"repro/internal/logic"
	"repro/internal/synth"
	"repro/internal/xbar"
)

func TestRDFamilyDimensions(t *testing.T) {
	cases := []struct {
		name     string
		products int
		area     int
	}{
		{"rd53", 31, 544},
		{"rd73", 127, 2600},
		{"rd84", 255, 6216},
	}
	for _, tc := range cases {
		c, ok := ByName(tc.name)
		if !ok {
			t.Fatalf("%s missing", tc.name)
		}
		cov := c.Build()
		if cov.NumProducts() != tc.products {
			t.Errorf("%s products = %d, want %d (paper)", tc.name, cov.NumProducts(), tc.products)
		}
		if got := synth.TwoLevel(cov).Area; got != tc.area {
			t.Errorf("%s area = %d, want %d (paper Table II)", tc.name, got, tc.area)
		}
	}
}

func TestRD53ComputesPopcount(t *testing.T) {
	c, _ := ByName("rd53")
	cov := c.Build()
	for m := 0; m < 32; m++ {
		x := make([]bool, 5)
		ones := 0
		for i := range x {
			x[i] = m&(1<<uint(i)) != 0
			if x[i] {
				ones++
			}
		}
		y := cov.Eval(x)
		for j := 0; j < 3; j++ {
			if y[j] != (ones&(1<<uint(j)) != 0) {
				t.Fatalf("rd53(%05b) bit %d wrong", m, j)
			}
		}
	}
}

func TestSqrt8Computes(t *testing.T) {
	c, _ := ByName("sqrt8")
	cov := c.Build()
	for m := 0; m < 256; m++ {
		x := make([]bool, 8)
		for i := range x {
			x[i] = m&(1<<uint(i)) != 0
		}
		y := cov.Eval(x)
		want := int(math.Sqrt(float64(m)))
		for want*want > m {
			want--
		}
		got := 0
		for j := 0; j < 4; j++ {
			if y[j] {
				got |= 1 << uint(j)
			}
		}
		if got != want {
			t.Fatalf("sqrt8(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestSquar5Computes(t *testing.T) {
	c, _ := ByName("squar5")
	cov := c.Build()
	for m := 0; m < 32; m++ {
		x := make([]bool, 5)
		for i := range x {
			x[i] = m&(1<<uint(i)) != 0
		}
		y := cov.Eval(x)
		got := 0
		for j := 0; j < 8; j++ {
			if y[j] {
				got |= 1 << uint(j)
			}
		}
		if got != (m*m)&0xFF {
			t.Fatalf("squar5(%d) = %d, want %d", m, got, (m*m)&0xFF)
		}
	}
}

func TestProfileGeometryMatchesPaper(t *testing.T) {
	for _, c := range Table2Circuits() {
		if c.Kind != Profile {
			continue
		}
		cov := c.Build()
		if cov.NumIn != c.Inputs || cov.NumOut != c.Outputs || cov.NumProducts() != c.Products {
			t.Errorf("%s built %d/%d/%d, want %d/%d/%d", c.Name,
				cov.NumIn, cov.NumOut, cov.NumProducts(), c.Inputs, c.Outputs, c.Products)
		}
		wantArea := (c.Products + c.Outputs) * (2*c.Inputs + 2*c.Outputs)
		if got := synth.TwoLevel(cov).Area; got != wantArea {
			t.Errorf("%s area = %d, want %d", c.Name, got, wantArea)
		}
	}
}

func TestProfileIRApproximatesPaper(t *testing.T) {
	for _, c := range Table2Circuits() {
		if c.Kind != Profile || c.IR == 0 {
			continue
		}
		l, err := xbar.NewTwoLevel(c.Build())
		if err != nil {
			t.Fatal(err)
		}
		got := l.InclusionRatio()
		if math.Abs(got-c.IR) > 0.06 {
			t.Errorf("%s IR = %.3f, paper %.3f (tolerance 0.06)", c.Name, got, c.IR)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	a, _ := ByName("alu4")
	b, _ := ByName("alu4")
	if a.Build().String() != b.Build().String() {
		t.Error("profile builds must be deterministic")
	}
}

func TestProfileOutputsAllDriven(t *testing.T) {
	// Exact circuits may legitimately have constant-0 outputs (bit 1 of a
	// square is always 0 in squar5); synthetic profiles must not.
	for _, c := range Table2Circuits() {
		if c.Kind != Profile {
			continue
		}
		cov := c.Build()
		for j := 0; j < cov.NumOut; j++ {
			driven := false
			for _, cube := range cov.Cubes {
				if cube.Out[j] {
					driven = true
					break
				}
			}
			if !driven {
				t.Errorf("%s output %d has no products", c.Name, j)
			}
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := ByName("nonexistent"); ok {
		t.Error("unknown name must miss")
	}
	names := Names()
	if len(names) < 16 {
		t.Errorf("only %d names", len(names))
	}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Errorf("Names lists %s but ByName misses it", n)
		}
	}
}

func TestTable1ListedCircuitsBuild(t *testing.T) {
	for _, c := range Table1Circuits() {
		cov := c.Build()
		if cov.IsEmpty() {
			t.Errorf("%s built empty", c.Name)
		}
		if cov.NumIn != c.Inputs || cov.NumOut != c.Outputs {
			t.Errorf("%s dims %dx%d, want %dx%d", c.Name, cov.NumIn, cov.NumOut, c.Inputs, c.Outputs)
		}
	}
}

func TestKindString(t *testing.T) {
	c, _ := ByName("rd53")
	if c.Kind.String() != "exact" || Profile.String() != "profile" {
		t.Error("Kind.String broken")
	}
}

func TestExactCircuitsAreValidCovers(t *testing.T) {
	// The exact builds must be well-formed covers (dimension consistency).
	for _, name := range []string{"rd53", "rd73", "rd84", "sqrt8", "squar5"} {
		c, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		cov := c.Build()
		for _, cube := range cov.Cubes {
			if len(cube.In) != cov.NumIn || len(cube.Out) != cov.NumOut {
				t.Fatalf("%s has inconsistent cube dims", name)
			}
			if cube.NumOutputs() == 0 {
				t.Fatalf("%s has a cube with no outputs", name)
			}
		}
	}
	_ = logic.LitDC // keep the logic import for clarity of intent
}
