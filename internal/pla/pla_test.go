package pla

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

const sample = `# con1 style example
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
10- 10
-01 11
0-0 01
.e
`

func TestParseBasics(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Cover.NumIn != 3 || f.Cover.NumOut != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", f.Cover.NumIn, f.Cover.NumOut)
	}
	if f.Cover.NumProducts() != 3 {
		t.Fatalf("products = %d, want 3", f.Cover.NumProducts())
	}
	if len(f.InLabels) != 3 || f.InLabels[0] != "a" {
		t.Errorf("InLabels = %v", f.InLabels)
	}
	if len(f.OutLabels) != 2 || f.OutLabels[1] != "g" {
		t.Errorf("OutLabels = %v", f.OutLabels)
	}
}

func TestParseEvaluates(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	y := f.Cover.Eval([]bool{true, false, false})
	if !y[0] || y[1] {
		t.Errorf("Eval(100) = %v, want [true false]", y)
	}
	y = f.Cover.Eval([]bool{false, false, true})
	if !y[0] || !y[1] {
		t.Errorf("Eval(001) = %v, want [true true]", y)
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	text := f.String()
	g, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	ok, err := logic.Equivalent(f.Cover, g.Cover, 0, nil)
	if err != nil || !ok {
		t.Errorf("round trip changed the function (ok=%v err=%v)", ok, err)
	}
	if g.Cover.NumProducts() != f.Cover.NumProducts() {
		t.Errorf("round trip changed product count")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"10- 1\n",                        // cube before .i/.o
		".i 2\n.o 1\n.p 5\n10 1\n.e\n",   // .p mismatch
		".i x\n.o 1\n.e\n",               // bad .i
		".i 2\n.o 1\n.ilb a\n10 1\n.e\n", // .ilb arity
		".i 2\n.o 2\n.ob a\n10 11\n.e\n", // .ob arity
		".i 2\n.o 1\n1x 1\n.e\n",         // bad literal
		".i 2\n",                         // missing .o entirely? (.o undeclared)
	}
	for _, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	s := ".i 2\n.o 1\n\n# full comment\n10 1 # trailing comment\n.e\n"
	f, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if f.Cover.NumProducts() != 1 {
		t.Errorf("products = %d, want 1", f.Cover.NumProducts())
	}
}

func TestParseEmptyCover(t *testing.T) {
	f, err := Parse(strings.NewReader(".i 4\n.o 2\n.e\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Cover.IsEmpty() {
		t.Error("cover should be empty")
	}
}

func TestParseSingleOutputShorthandRejectedForMulti(t *testing.T) {
	if _, err := Parse(strings.NewReader(".i 2\n.o 2\n10\n.e\n")); err == nil {
		t.Error("missing output part with .o 2 should fail")
	}
}

func TestParseTypeDirective(t *testing.T) {
	f, err := Parse(strings.NewReader(".i 1\n.o 1\n.type fr\n1 1\n.e\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != "fr" {
		t.Errorf("Type = %q, want fr", f.Type)
	}
	if !strings.Contains(f.String(), ".type fr") {
		t.Error("Write must preserve .type")
	}
}

func TestParseStopsAtEnd(t *testing.T) {
	f, err := Parse(strings.NewReader(".i 2\n.o 1\n10 1\n.e\n11 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Cover.NumProducts() != 1 {
		t.Errorf("rows after .e must be ignored, got %d products", f.Cover.NumProducts())
	}
}
