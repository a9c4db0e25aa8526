package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/defect"
	"repro/internal/lfg"
	"repro/internal/minimize"
	"repro/internal/suite"
	"repro/internal/xbar"
)

// digestCircuits are paper-repro's nine Table II circuits plus ex1010 and
// exp5, the Section VI sweep's widest fabrics (exp5 has 142 columns, so its
// rows span three words).
var digestCircuits = []string{
	"rd53", "squar5", "bw", "inc", "misex1", "sqrt8", "sao2", "rd73", "clip",
	"ex1010", "exp5",
}

// goldenLayout builds a circuit's Table II layout the way the studies do:
// exact circuits are minimized first.
func goldenLayout(t *testing.T, name string) *xbar.Layout {
	t.Helper()
	c, ok := suite.ByName(name)
	if !ok {
		t.Fatalf("unknown circuit %s", name)
	}
	cov := c.Build()
	if c.Kind == suite.Exact {
		cov = minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// writeResult folds what a mapper decided into h: Valid, Reason,
// Backtracks and the full Assignment. MatchChecks is left out; it counts
// work, not a decision.
func writeResult(h hash.Hash, r Result) {
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	if r.Valid {
		put(1)
	} else {
		put(0)
	}
	put(len(r.Reason))
	h.Write([]byte(r.Reason))
	put(r.Stats.Backtracks)
	put(len(r.Assignment))
	for _, t := range r.Assignment {
		put(t)
	}
}

// TestPlacementDigestGolden pins every decision HBAScratch and ExactScratch
// make on seeded maps: for each digest circuit, {0, 2, 8} spare rows,
// stuck-closed rates {0, 0.002} and stuck-open rates {5, 10, 15} %, 40 maps
// each, one reused Scratch per algorithm. A SHA-256 over (Valid, Reason,
// Backtracks, Assignment) moves when any placement, failure reason or
// backtrack count does, so a change to how candidates are found must leave
// it alone.
func TestPlacementDigestGolden(t *testing.T) {
	const mapsPerPoint = 40
	want := map[string]string{
		"hba": "1b3a88467752a0bf4c3343d32c061a4c69ab09b7b92619a8c57b9b8c8d25dd9f",
		"ea":  "277977c851c958f74a036aeec586ba091fb5d79cb2281d8c5377f6cf495f7d66",
	}
	layouts := make([]*xbar.Layout, len(digestCircuits))
	for k, name := range digestCircuits {
		layouts[k] = goldenLayout(t, name)
	}
	for _, algo := range []struct {
		name string
		run  func(*Problem, *Scratch) Result
	}{
		{"hba", HBAScratch},
		{"ea", ExactScratch},
	} {
		h := sha256.New()
		s := NewScratch()
		src := lfg.New(0)
		seed, valid, runs := int64(0), 0, 0
		for _, l := range layouts {
			for _, spares := range []int{0, 2, 8} {
				dm := defect.NewMap(l.Rows+spares, l.Cols)
				p, err := NewProblem(l, dm)
				if err != nil {
					t.Fatal(err)
				}
				for _, closed := range []float64{0, 0.002} {
					for _, open := range []float64{0.05, 0.10, 0.15} {
						params := defect.Params{POpen: open, PClosed: closed}
						for k := 0; k < mapsPerPoint; k++ {
							seed++
							src.Seed(seed)
							if err := dm.Regenerate(params, src); err != nil {
								t.Fatal(err)
							}
							r := algo.run(p, s)
							writeResult(h, r)
							runs++
							if r.Valid {
								valid++
							}
						}
					}
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d of %d maps placed, digest %s", algo.name, valid, runs, got)
		if got != want[algo.name] {
			t.Errorf("%s: placement digest %s, want %s", algo.name, got, want[algo.name])
		}
	}
}
