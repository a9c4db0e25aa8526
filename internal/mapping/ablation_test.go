package mapping

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/defect"
	"repro/internal/xbar"
)

// TestHBAWithPaperOptionsMatchesHBA: HBA is HBAWith under PaperHBAOptions,
// so the whole Result agrees — Valid, Reason, Stats and Assignment.
func TestHBAWithPaperOptionsMatchesHBA(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		f := randomMulti(rng, n, 1+rng.Intn(3), 1+rng.Intn(7))
		l, err := xbar.NewTwoLevel(f)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(l, dm)
		if err != nil {
			t.Fatal(err)
		}
		a := HBA(p)
		b := HBAWith(p, PaperHBAOptions(), nil)
		if a.Valid != b.Valid || a.Reason != b.Reason || a.Stats != b.Stats || !slices.Equal(a.Assignment, b.Assignment) {
			t.Fatalf("trial %d: HBAWith(paper options) disagrees with HBA: %+v vs %+v", trial, b, a)
		}
		if b.Valid {
			if err := p.Validate(b.Assignment); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAblationVariantsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	variants := []HBAOptions{
		{},
		{Backtracking: true},
		{ExactOutputs: true},
		{Backtracking: true, ExactOutputs: true, DensityOrder: true},
		{DensityOrder: true},
	}
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(4)
		f := randomMulti(rng, n, 1+rng.Intn(3), 1+rng.Intn(7))
		l, err := xbar.NewTwoLevel(f)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(l, dm)
		if err != nil {
			t.Fatal(err)
		}
		exact := Exact(p)
		for _, opt := range variants {
			res := HBAWith(p, opt, nil)
			if res.Valid {
				if err := p.Validate(res.Assignment); err != nil {
					t.Fatalf("variant %+v produced invalid mapping: %v", opt, err)
				}
				if !exact.Valid {
					t.Fatalf("variant %+v succeeded where EA failed", opt)
				}
			}
		}
	}
}

func TestBacktrackingHelps(t *testing.T) {
	// Across many random instances, backtracking must succeed at least as
	// often as the plain greedy sweep, and strictly more overall.
	rng := rand.New(rand.NewSource(107))
	withBT, withoutBT := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(4)
		f := randomMulti(rng, n, 1+rng.Intn(2), 2+rng.Intn(6))
		l, err := xbar.NewTwoLevel(f)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.18}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(l, dm)
		if err != nil {
			t.Fatal(err)
		}
		if HBAWith(p, HBAOptions{Backtracking: true, ExactOutputs: true}, nil).Valid {
			withBT++
		}
		if HBAWith(p, HBAOptions{Backtracking: false, ExactOutputs: true}, nil).Valid {
			withoutBT++
		}
	}
	if withBT < withoutBT {
		t.Errorf("backtracking hurt: %d vs %d successes", withBT, withoutBT)
	}
	if withBT == withoutBT {
		t.Logf("note: backtracking never changed the outcome in %d trials", 400)
	}
}

func TestExactOutputsHelp(t *testing.T) {
	// The paper's motivation for the hybrid: outputs assigned exactly must
	// do at least as well as greedy outputs.
	rng := rand.New(rand.NewSource(109))
	exactWins, greedyWins := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(4)
		f := randomMulti(rng, n, 2+rng.Intn(3), 2+rng.Intn(6))
		l, err := xbar.NewTwoLevel(f)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.18}, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(l, dm)
		if err != nil {
			t.Fatal(err)
		}
		e := HBAWith(p, HBAOptions{Backtracking: true, ExactOutputs: true}, nil).Valid
		g := HBAWith(p, HBAOptions{Backtracking: true, ExactOutputs: false}, nil).Valid
		if e && !g {
			exactWins++
		}
		if g && !e {
			greedyWins++
		}
	}
	// Whenever first-fit outputs succeed, Munkres outputs succeed too
	// (both pick from the same free rows); the converse fails on some
	// instances, which is the paper's motivation for the hybrid.
	if greedyWins != 0 {
		t.Errorf("greedy outputs succeeded where exact failed on %d instances; impossible", greedyWins)
	}
	if exactWins == 0 {
		t.Log("note: exact output assignment never made the difference in this corpus")
	}
}

func TestFig8UnderAllVariants(t *testing.T) {
	p := fig8Problem(t)
	for _, opt := range []HBAOptions{
		PaperHBAOptions(),
		{Backtracking: true, ExactOutputs: true, DensityOrder: true},
	} {
		res := HBAWith(p, opt, nil)
		if !res.Valid {
			t.Errorf("variant %+v fails the Fig. 8 instance: %s", opt, res.Reason)
		}
	}
}
