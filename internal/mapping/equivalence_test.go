package mapping

// Equivalence tests for the word-packed refactor: the packed matcher and the
// refactored algorithms must agree with the retained pre-refactor scalar
// implementations. The reference* functions below are verbatim copies of the
// pre-refactor code paths (per-column scans, no stuck-closed row pruning,
// full-matrix Munkres from internal/munkres, the test oracle of the
// assignment step), built on scalarRowMatches.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/defect"
	"repro/internal/munkres"
	"repro/internal/randfunc"
	"repro/internal/xbar"
)

// scalarRowMatches is the pre-refactor per-column matcher, kept as the
// reference implementation for the packed/scalar equivalence tests. It
// deliberately rescans the defect cells instead of using the cached masks.
func (p *Problem) scalarRowMatches(fmRow int, cmRow int, stats *Stats) bool {
	stats.MatchChecks++
	for c := 0; c < p.Defects.Cols; c++ {
		if p.Defects.At(cmRow, c) == defect.StuckClosed {
			return false
		}
	}
	active := p.Layout.Active[fmRow]
	for c, a := range active {
		if a && !p.Defects.Functional(cmRow, c) {
			return false
		}
	}
	return true
}

// refColHasClosed rescans the column like the pre-refactor defect.Map did.
func refColHasClosed(dm *defect.Map, c int) bool {
	for r := 0; r < dm.Rows; r++ {
		if dm.At(r, c) == defect.StuckClosed {
			return true
		}
	}
	return false
}

// referenceColumnFeasible is the pre-refactor per-column scan.
func referenceColumnFeasible(p *Problem) (bool, int) {
	used := make([]bool, p.Layout.Cols)
	for _, row := range p.Layout.Active {
		for c, a := range row {
			if a {
				used[c] = true
			}
		}
	}
	for c, u := range used {
		if u && refColHasClosed(p.Defects, c) {
			return false, c
		}
	}
	return true, -1
}

// referenceNaive is the pre-refactor Naive.
func referenceNaive(p *Problem) Result {
	var stats Stats
	assignment := make([]int, p.Layout.Rows)
	for r := range assignment {
		assignment[r] = r
	}
	if ok, _ := referenceColumnFeasible(p); !ok {
		return Result{Stats: stats}
	}
	for r := range assignment {
		if !p.scalarRowMatches(r, r, &stats) {
			return Result{Stats: stats}
		}
	}
	return Result{Valid: true, Assignment: assignment, Stats: stats}
}

// referenceExact is the pre-refactor EA: full FM × CM matrix, no pruning.
func referenceExact(p *Problem) Result {
	var stats Stats
	if ok, _ := referenceColumnFeasible(p); !ok {
		return Result{Stats: stats}
	}
	nFM, nCM := p.Layout.Rows, p.Defects.Rows
	forbidden := make([][]bool, nFM)
	for i := 0; i < nFM; i++ {
		forbidden[i] = make([]bool, nCM)
		for t := 0; t < nCM; t++ {
			forbidden[i][t] = !p.scalarRowMatches(i, t, &stats)
		}
	}
	assign, ok, err := munkres.SolveBinary(forbidden)
	if err != nil || !ok {
		return Result{Stats: stats}
	}
	return Result{Valid: true, Assignment: assign, Stats: stats}
}

// referenceHBA is the pre-refactor Algorithm 1. Its MatchChecks counts the
// product phase's per-pair early-exit scans only.
func referenceHBA(p *Problem) Result {
	var stats Stats
	if ok, _ := referenceColumnFeasible(p); !ok {
		return Result{Stats: stats}
	}
	nCM := p.Defects.Rows
	products := p.Layout.ProductRows()
	outputs := p.Layout.OutputRows()
	occupant := make([]int, nCM)
	for t := range occupant {
		occupant[t] = -1
	}
	place := make([]int, p.Layout.Rows)
	for r := range place {
		place[r] = -1
	}
	findUnmatched := func(fmRow, except int) int {
		for t := 0; t < nCM; t++ {
			if t == except {
				continue
			}
			if occupant[t] == -1 && p.scalarRowMatches(fmRow, t, &stats) {
				return t
			}
		}
		return -1
	}
	for _, i := range products {
		if t := findUnmatched(i, -1); t >= 0 {
			occupant[t] = i
			place[i] = t
			continue
		}
		stats.Backtracks++
		placed := false
		for t := 0; t < nCM && !placed; t++ {
			if occupant[t] == -1 || !p.scalarRowMatches(i, t, &stats) {
				continue
			}
			prev := occupant[t]
			occupant[t] = -1
			if u := findUnmatched(prev, t); u >= 0 {
				occupant[u] = prev
				place[prev] = u
				occupant[t] = i
				place[i] = t
				placed = true
			} else {
				occupant[t] = prev
			}
		}
		if !placed {
			return Result{Stats: stats}
		}
	}
	var free []int
	for t := 0; t < nCM; t++ {
		if occupant[t] == -1 {
			free = append(free, t)
		}
	}
	if len(free) < len(outputs) {
		return Result{Stats: stats}
	}
	// The output stage tests every (output, free row) pair into a
	// throwaway count, so Stats.MatchChecks is the product phase's.
	var outputStats Stats
	forbidden := make([][]bool, len(outputs))
	for k, i := range outputs {
		forbidden[k] = make([]bool, len(free))
		for u, t := range free {
			forbidden[k][u] = !p.scalarRowMatches(i, t, &outputStats)
		}
	}
	assign, ok, err := munkres.SolveBinary(forbidden)
	if err != nil || !ok {
		return Result{Stats: stats}
	}
	for k, i := range outputs {
		place[i] = free[assign[k]]
	}
	return Result{Valid: true, Assignment: place, Stats: stats}
}

// randomProblem builds a random two-level layout with a random defect map
// (optionally with spare rows and stuck-closed defects).
func randomProblem(seed int64, spares int, pClosed float64) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 4 + rng.Intn(3)}, rng)
	if err != nil {
		return nil, err
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		return nil, err
	}
	dm, err := defect.Generate(l.Rows+spares, l.Cols,
		defect.Params{POpen: 0.12, PClosed: pClosed}, rng)
	if err != nil {
		return nil, err
	}
	return NewProblem(l, dm)
}

// TestPackedMatcherAgreesWithScalar is the bitset/scalar property: on random
// layouts and defect maps (including stuck-closed lines and spare rows), the
// packed matcher and ColumnFeasible agree with the scalar reference on every
// (FM row, CM row) pair.
func TestPackedMatcherAgreesWithScalar(t *testing.T) {
	property := func(seed int64) bool {
		p, err := randomProblem(seed%10_000, int(uint64(seed)%3), 0.02)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < p.Layout.Rows; i++ {
			for cm := 0; cm < p.Defects.Rows; cm++ {
				var a, b Stats
				if p.rowMatches(i, cm, &a) != p.scalarRowMatches(i, cm, &b) {
					t.Logf("seed %d: packed/scalar disagree at FM %d, CM %d", seed, i, cm)
					return false
				}
				if a.MatchChecks != 1 || b.MatchChecks != 1 {
					return false
				}
			}
		}
		gotOK, gotCol := p.ColumnFeasible()
		wantOK, wantCol := referenceColumnFeasible(p)
		return gotOK == wantOK && gotCol == wantCol
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(217))}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmsMatchPreRefactor pins Naive/HBA/EA to the pre-refactor
// implementations on stuck-open instances (the Table II regime, where EA's
// up-front pruning is a no-op). Naive is pinned exactly: Valid, Assignment
// and Stats. HBA and EA must agree on Valid and Backtracks, and every
// assignment they return must pass Validate. HBA's product rows land
// exactly where the reference puts them — that phase is unchanged — but
// the CM row an output row (HBA) or any row (EA) lands on may differ: the
// references solve the assignment with Munkres, the algorithms with
// bipartite matching, and both pick one of possibly many valid
// placements. HBA's product phase tests exactly the pairs the reference's
// per-pair scans test, so its MatchChecks minus the output matcher's count
// equals the reference's product-phase count.
func TestAlgorithmsMatchPreRefactor(t *testing.T) {
	property := func(seed int64) bool {
		p, err := randomProblem(seed%10_000, int(uint64(seed)%3), 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check := func(name string, got, want Result, samePlace []int) bool {
			if got.Valid != want.Valid || got.Stats.Backtracks != want.Stats.Backtracks {
				t.Logf("seed %d %s: got Valid=%v %+v, want Valid=%v %+v",
					seed, name, got.Valid, got.Stats, want.Valid, want.Stats)
				return false
			}
			if !got.Valid {
				return true
			}
			if err := p.Validate(got.Assignment); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			for _, r := range samePlace {
				if got.Assignment[r] != want.Assignment[r] {
					t.Logf("seed %d %s: assignment differs at row %d", seed, name, r)
					return false
				}
			}
			return true
		}
		gotN, wantN := Naive(p), referenceNaive(p)
		if gotN.Stats != wantN.Stats {
			t.Logf("seed %d naive: stats %+v vs %+v", seed, gotN.Stats, wantN.Stats)
			return false
		}
		allRows := make([]int, p.Layout.Rows)
		for r := range allRows {
			allRows[r] = r
		}
		var s Scratch
		gotH, wantH := HBAScratch(p, &s), referenceHBA(p)
		if got := gotH.Stats.MatchChecks - s.match.checks; got != wantH.Stats.MatchChecks {
			t.Logf("seed %d hba: product phase made %d pair tests, the per-pair scans %d",
				seed, got, wantH.Stats.MatchChecks)
			return false
		}
		return check("naive", gotN, wantN, allRows) &&
			check("hba", gotH, wantH, p.Layout.ProductRows()) &&
			check("ea", Exact(p), referenceExact(p), nil)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(256))}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmsMatchWithClosedDefects covers the stuck-closed regime. Naive
// is structurally unchanged, so it stays fully identical; HBA is pinned on
// Valid and Backtracks. EA matches on the candidate bitsets, which exclude
// poisoned CM rows, instead of running Munkres on the full matrix — the
// assignment may legitimately differ among equally-valid ones — so EA is
// pinned on Valid plus an independent Validate of any assignment it
// returns.
func TestAlgorithmsMatchWithClosedDefects(t *testing.T) {
	property := func(seed int64) bool {
		p, err := randomProblem(seed%10_000, 1+int(uint64(seed)%3), 0.03)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotN, wantN := Naive(p), referenceNaive(p)
		if gotN.Valid != wantN.Valid || gotN.Stats != wantN.Stats {
			t.Logf("seed %d naive diverged", seed)
			return false
		}
		gotH, wantH := HBA(p), referenceHBA(p)
		if gotH.Valid != wantH.Valid || gotH.Stats.Backtracks != wantH.Stats.Backtracks {
			t.Logf("seed %d hba diverged: %+v vs %+v", seed, gotH.Stats, wantH.Stats)
			return false
		}
		gotE, wantE := Exact(p), referenceExact(p)
		if gotE.Valid != wantE.Valid {
			t.Logf("seed %d ea validity diverged", seed)
			return false
		}
		if gotE.Valid {
			if err := p.Validate(gotE.Assignment); err != nil {
				t.Logf("seed %d ea assignment invalid: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(315))}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidateBitsetsMatchPairTests is the kernel property at the mapping
// layer: on random layouts and defect maps (spare rows across the 64- and
// 128-row word boundaries, stuck-closed lines included), under random
// masks of usable CM rows, the masked first fit from every start row and
// the matcher's lazy fill of every FM row agree with both the packed
// per-pair matcher and the pre-refactor scalar matcher. The first fit
// reports the mask rows it passed as tested; a fill counts Defects.Rows
// tests once, and a second read of the row tests nothing.
func TestCandidateBitsetsMatchPairTests(t *testing.T) {
	property := func(seed int64) bool {
		p, err := randomProblem(seed%10_000, 40*int(uint64(seed)%4), 0.02)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		nCM := p.Defects.Rows
		var s Scratch
		mask := s.usableRows(p)
		density := rng.Float64()
		for t := 0; t < nCM; t++ {
			if rng.Float64() > density {
				mask.Clear(t)
			}
		}
		fits := func(i, cm int) bool {
			var a, b Stats
			packed, scalar := p.rowMatches(i, cm, &a), p.scalarRowMatches(i, cm, &b)
			if packed != scalar {
				t.Fatalf("seed %d: packed/scalar disagree at FM %d, CM %d", seed, i, cm)
			}
			return packed
		}
		s.match.reset(p.Layout.ActiveMatrix(), p.Defects.FunctionalMatrix(), mask, nil)
		for i := 0; i < p.Layout.Rows; i++ {
			before := s.match.checks
			cand := s.match.candidates(i)
			if s.match.checks-before != nCM {
				t.Logf("seed %d: fill of FM row %d counted %d tests, want %d", seed, i, s.match.checks-before, nCM)
				return false
			}
			if s.match.candidates(i); s.match.checks-before != nCM {
				t.Logf("seed %d: second read of FM row %d filled it again", seed, i)
				return false
			}
			for from := 0; from <= nCM; from++ {
				want, tested := -1, 0
				for cm := from; cm < nCM && want < 0; cm++ {
					if mask.Get(cm) {
						tested++
						if fits(i, cm) {
							want = cm
						}
					}
				}
				var stats Stats
				if got := firstFit(p, i, mask, from, &stats); got != want || stats.MatchChecks != tested {
					t.Logf("seed %d: first fit of FM row %d from %d = %d after %d tests, want %d after %d",
						seed, i, from, got, stats.MatchChecks, want, tested)
					return false
				}
			}
			for cm := 0; cm < nCM; cm++ {
				if want := mask.Get(cm) && fits(i, cm); cand.Get(cm) != want {
					t.Logf("seed %d: filled candidate bit (FM %d, CM %d) = %v, want %v", seed, i, cm, cand.Get(cm), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(357))}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuseMatchesFresh re-runs the scratch variants many times on
// one reusable Scratch and defect map, asserting bit-identical results with
// the allocate-fresh paths (the zero-alloc yield-loop contract).
func TestScratchReuseMatchesFresh(t *testing.T) {
	cov, err := randfunc.Generate(randfunc.Params{Inputs: 5}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		t.Fatal(err)
	}
	dm := defect.NewMap(l.Rows+2, l.Cols)
	p, err := NewProblem(l, dm)
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch()
	rng := rand.New(rand.NewSource(0))
	for trial := 0; trial < 50; trial++ {
		rng.Seed(int64(trial) * 977)
		if err := dm.Regenerate(defect.Params{POpen: 0.12, PClosed: 0.01}, rng); err != nil {
			t.Fatal(err)
		}
		algos := []struct {
			name    string
			scratch func(*Problem, *Scratch) Result
			fresh   func(*Problem) Result
		}{
			{"naive", NaiveScratch, Naive},
			{"hba", HBAScratch, HBA},
			{"ea", ExactScratch, Exact},
		}
		for _, a := range algos {
			// Compare one algorithm at a time: a scratch Result's
			// Assignment aliases the Scratch and the next scratch call
			// overwrites it.
			got := a.scratch(p, scratch)
			want := a.fresh(p)
			name := a.name
			if got.Valid != want.Valid || got.Stats != want.Stats || got.Reason != want.Reason {
				t.Fatalf("trial %d %s: scratch %+v vs fresh %+v", trial, name, got, want)
			}
			if got.Valid {
				for r := range want.Assignment {
					if got.Assignment[r] != want.Assignment[r] {
						t.Fatalf("trial %d %s: assignment differs at %d", trial, name, r)
					}
				}
			}
		}
	}
}
