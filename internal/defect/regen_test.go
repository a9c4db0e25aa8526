package defect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/lfg"
)

// TestRegenerateMatchesGenerate pins the scratch-reuse contract: Regenerate
// on a dirty map with an identically-seeded rng reproduces Generate's map
// exactly (same rng consumption order, same cells, same caches).
func TestRegenerateMatchesGenerate(t *testing.T) {
	p := Params{POpen: 0.15, PClosed: 0.03}
	fresh, err := Generate(37, 21, p, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	reused := NewMap(37, 21)
	// Dirty the scratch map first so the test proves Regenerate resets
	// everything, not just that it fills an empty map.
	if err := reused.Regenerate(Params{POpen: 0.5, PClosed: 0.3}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := reused.Regenerate(p, rand.New(rand.NewSource(99))); err != nil {
		t.Fatal(err)
	}
	sameMap(t, "Regenerate vs Generate on the same seed", reused, fresh)
	if err := reused.Regenerate(Params{POpen: -1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid params accepted")
	}
	if err := reused.Regenerate(p, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestIncrementalCachesMatchRescan drives random Set transitions (including
// overwrites and clears) and cross-checks every cached answer — the packed
// functional rows, the O(1) line flags and the per-column closed counts —
// against a full rescan of the cells.
func TestIncrementalCachesMatchRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMap(13, 70) // spans a word boundary
	kinds := []Kind{OK, StuckOpen, StuckClosed}
	for step := 0; step < 2000; step++ {
		m.Set(rng.Intn(m.Rows), rng.Intn(m.Cols), kinds[rng.Intn(3)])
		if step%100 != 0 && step != 1999 {
			continue
		}
		for r := 0; r < m.Rows; r++ {
			rowClosed := false
			for c := 0; c < m.Cols; c++ {
				if m.At(r, c) == StuckClosed {
					rowClosed = true
				}
				if m.FunctionalRow(r).Get(c) != m.Functional(r, c) {
					t.Fatalf("step %d: packed functional bit (%d,%d) stale", step, r, c)
				}
			}
			if m.RowHasClosed(r) != rowClosed {
				t.Fatalf("step %d: RowHasClosed(%d) stale", step, r)
			}
		}
		for c := 0; c < m.Cols; c++ {
			closed := 0
			for r := 0; r < m.Rows; r++ {
				if m.At(r, c) == StuckClosed {
					closed++
				}
			}
			if m.ClosedInColumn(c) != closed {
				t.Fatalf("step %d: ClosedInColumn(%d) = %d, rescan counts %d", step, c, m.ClosedInColumn(c), closed)
			}
			colClosed := closed > 0
			if m.ColHasClosed(c) != colClosed {
				t.Fatalf("step %d: ColHasClosed(%d) stale", step, c)
			}
			if m.ClosedCols().Get(c) != colClosed {
				t.Fatalf("step %d: ClosedCols mask stale at %d", step, c)
			}
		}
	}
}

// oracleGenerate is the per-cell sampler the word-level Regenerate replaced,
// kept as its oracle: one Float64 per crosspoint in row-major order,
// stuck-open below POpen, stuck-closed below POpen+PClosed.
func oracleGenerate(rows, cols int, p Params, rng *rand.Rand) *Map {
	m := NewMap(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := rng.Float64()
			switch {
			case u < p.POpen:
				m.Set(r, c, StuckOpen)
			case u < p.POpen+p.PClosed:
				m.Set(r, c, StuckClosed)
			}
		}
	}
	return m
}

// sameMap fails unless got and want agree cell by cell and in every cache.
func sameMap(t *testing.T, context string, got, want *Map) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d map, want %dx%d", context, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: maps differ:\n%s\nwant\n%s", context, got, want)
	}
	for r := 0; r < got.Rows; r++ {
		if !bitmat.Equal(got.FunctionalRow(r), want.FunctionalRow(r)) || got.RowHasClosed(r) != want.RowHasClosed(r) {
			t.Fatalf("%s: row %d caches differ", context, r)
		}
	}
	for c := 0; c < got.Cols; c++ {
		if got.ClosedInColumn(c) != want.ClosedInColumn(c) || got.ColHasClosed(c) != want.ColHasClosed(c) {
			t.Fatalf("%s: column %d caches differ", context, c)
		}
	}
	if !bitmat.Equal(got.ClosedCols(), want.ClosedCols()) || !bitmat.Equal(got.ClosedRows(), want.ClosedRows()) {
		t.Fatalf("%s: closed-line masks differ", context)
	}
}

var oracleParams = []Params{
	{}, {POpen: 0.10}, {POpen: 0.05}, {POpen: 0.2, PClosed: 0.01},
	{POpen: 0.15, PClosed: 0.03}, {POpen: 0.5, PClosed: 0.5}, {POpen: 1}, {PClosed: 1},
}

// TestRegenerateMatchesOracle: from the same stream, the word-level sampler
// builds the oracle's map, through the harness's bulk source and through a
// *rand.Rand drawn value by value, over widths on both sides of a word
// boundary and consecutive trials on one scratch map.
func TestRegenerateMatchesOracle(t *testing.T) {
	for _, cols := range []int{1, 7, 63, 64, 65, 130, 44} {
		for pi, p := range oracleParams {
			rows := 1 + (cols*7+pi)%23
			seed := int64(cols*1000 + pi)
			bulk, perDraw := NewMap(rows, cols), NewMap(rows, cols)
			src := lfg.New(seed)
			rng := rand.New(rand.NewSource(seed))
			ref := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				if err := bulk.Regenerate(p, src); err != nil {
					t.Fatal(err)
				}
				if err := perDraw.Regenerate(p, rng); err != nil {
					t.Fatal(err)
				}
				want := oracleGenerate(rows, cols, p, ref)
				context := fmt.Sprintf("%dx%d %+v trial %d", rows, cols, p, trial)
				sameMap(t, context+" (lfg)", bulk, want)
				sameMap(t, context+" (rand.Rand)", perDraw, want)
			}
			// The streams stay in step after the trials.
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("%dx%d %+v: stream position drifted", rows, cols, p)
			}
		}
	}
}

// TestThresholdIsExactBoundary pins the integer form of u < p: T is the
// first Int63 value whose Float64 reaches p, float64(T-1)/2⁶³ < p ≤
// float64(T)/2⁶³, for the study rates, their float neighbours, and the
// float sums POpen+PClosed the stuck-closed threshold uses.
func TestThresholdIsExactBoundary(t *testing.T) {
	check := func(p float64, T int64) {
		t.Helper()
		if T < 0 || T > redrawFrom {
			t.Fatalf("threshold(%v) = %d outside [0, redrawFrom]", p, T)
		}
		if T > 0 && !(float64(T-1)/(1<<63) < p) {
			t.Fatalf("threshold(%v) = %d: value %d below it has Float64 %v, not below p", p, T, T-1, float64(T-1)/(1<<63))
		}
		if !(p <= float64(T)/(1<<63)) {
			t.Fatalf("threshold(%v) = %d: its Float64 %v is below p", p, T, float64(T)/(1<<63))
		}
	}
	var rates []float64
	for _, p := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 1} {
		for _, q := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, 1)} {
			if q >= 0 && q <= 1 {
				rates = append(rates, q)
			}
		}
	}
	for _, p := range rates {
		check(p, threshold(p))
	}
	for _, open := range rates {
		for _, closed := range rates {
			p := Params{POpen: open, PClosed: closed}
			if p.validate(rand.New(rand.NewSource(1))) != nil {
				continue
			}
			c := cutFor(p)
			check(open, c.open)
			check(open+closed, c.defect)
		}
	}
	if threshold(0) != 0 || threshold(1) != redrawFrom {
		t.Fatalf("threshold(0), threshold(1) = %d, %d; want 0, redrawFrom", threshold(0), threshold(1))
	}
}

// scriptedSource replays a math/rand stream with the values of inject
// spliced in before the draws they are keyed by. It is a rand.Source, so
// rand.New(scriptedSource) drives the Float64 oracle from the same values.
type scriptedSource struct {
	base   *rand.Rand
	inject map[int][]int64
	n      int
}

func (s *scriptedSource) Int63() int64 {
	i := s.n
	s.n++
	if q := s.inject[i]; len(q) > 0 {
		s.inject[i] = q[1:]
		s.n-- // the next value is still keyed by i
		return q[0]
	}
	return s.base.Int63()
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource is not reseedable") }

func newScript(seed int64, inject map[int][]int64) *scriptedSource {
	cp := make(map[int][]int64, len(inject))
	for k, v := range inject {
		cp[k] = append([]int64(nil), v...)
	}
	return &scriptedSource{base: rand.New(rand.NewSource(seed)), inject: cp}
}

// TestRedrawZoneMatchesOracle feeds values Float64 redraws (≥ 2⁶³−512) in
// the middle of rows, on a row's last cell, at word boundaries and in runs,
// plus the largest values it keeps: the map and the stream position must
// match the Float64 oracle driven by rand.New over the same script. The
// script takes Regenerate's per-value path; lfg's planted-register test
// covers the same cases on lfg.Source.Below.
func TestRedrawZoneMatchesOracle(t *testing.T) {
	zone := []int64{redrawFrom, 1<<63 - 1, redrawFrom + 1, 1<<63 - 100}
	kept := []int64{redrawFrom - 1, redrawFrom - 512, 0}
	gen := rand.New(rand.NewSource(77))
	for _, cols := range []int{1, 5, 63, 64, 65, 130} {
		for _, p := range []Params{{POpen: 0.10}, {POpen: 0.2, PClosed: 0.05}, {POpen: 1}} {
			const rows = 6
			// Explicit positions: a row's last draw, the draw right after
			// it, a word boundary, and a run of three at one position.
			inject := map[int][]int64{
				cols - 1:       {zone[0]},
				cols:           {zone[1]},
				2*cols + 3:     {zone[2], zone[3], zone[0]},
				3*cols + 63:    {zone[1]},
				4 * cols / 2:   {kept[0]},
				rows*cols - 1:  {zone[2]},
				rows*cols + 10: {zone[3]}, // during the final top-up
			}
			// And random ones at a few percent of draws.
			for k := 0; k < rows*cols; k++ {
				switch gen.Intn(40) {
				case 0:
					inject[k] = append(inject[k], zone[gen.Intn(len(zone))])
				case 1:
					inject[k] = append(inject[k], kept[gen.Intn(len(kept))])
				}
			}
			seed := int64(cols)
			src := newScript(seed, inject)
			m := NewMap(rows, cols)
			if err := m.Regenerate(p, src); err != nil {
				t.Fatal(err)
			}
			oracleSrc := newScript(seed, inject)
			want := oracleGenerate(rows, cols, p, rand.New(oracleSrc))
			sameMap(t, fmt.Sprintf("cols %d %+v", cols, p), m, want)
			if got, want := src.Int63(), oracleSrc.Int63(); got != want {
				t.Fatalf("cols %d %+v: stream position drifted", cols, p)
			}
		}
	}
}

// TestDeltaWindowMatchesOracleDiff: over consecutive Regenerates of one
// map, each trial's map and caches equal the oracle's fresh map for the
// same stream — open↔closed flips and unchanged redraws included — so a
// reused map carries nothing over from the trial before.
func TestDeltaWindowMatchesOracleDiff(t *testing.T) {
	for _, tc := range []struct {
		p          Params
		rows, cols int
	}{
		{Params{POpen: 0.01}, 40, 70},
		{Params{POpen: 0.3, PClosed: 0.3}, 40, 70},
		{Params{}, 40, 70},
		// Every cell is defective, so every change is an open↔closed flip
		// that leaves the functional plane alone; about one trial in four
		// redraws the 1×2 map unchanged.
		{Params{POpen: 0.5, PClosed: 0.5}, 40, 70},
		{Params{POpen: 0.5, PClosed: 0.5}, 3, 4},
		{Params{POpen: 0.5, PClosed: 0.5}, 1, 2},
	} {
		p, rows, cols := tc.p, tc.rows, tc.cols
		m := NewMap(rows, cols)
		src := lfg.New(1234)
		ref := rand.New(rand.NewSource(1234))
		for trial := 0; trial < 40; trial++ {
			if err := m.Regenerate(p, src); err != nil {
				t.Fatal(err)
			}
			sameMap(t, fmt.Sprintf("%dx%d %+v trial %d", rows, cols, p, trial), m, oracleGenerate(rows, cols, p, ref))
		}
	}
}

// TestRegenerateDeltaZeroAllocs pins that regeneration is allocation-free
// (the Monte Carlo trial loop contract), from the harness's bulk source and
// from a *rand.Rand, and across a Params change.
func TestRegenerateDeltaZeroAllocs(t *testing.T) {
	m := NewMap(300, 44)
	p, q := Params{POpen: 0.1}, Params{POpen: 0.1, PClosed: 0.01}
	for _, src := range []Source{lfg.New(5), rand.New(rand.NewSource(5))} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := m.Regenerate(p, src); err != nil {
				t.Fatal(err)
			}
			if err := m.Regenerate(q, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Regenerate from %T allocates %v per trial, want 0", src, allocs)
		}
	}
}
