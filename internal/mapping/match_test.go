package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/munkres"
)

// matchWidths are the CM widths the matcher property draws from: a word
// boundary on each side of 64 and 128 bits, plus arbitrary widths.
var matchWidths = []int{1, 7, 63, 64, 65, 100, 127, 128, 129, 191, 200}

// randomMatchInstance draws a random 0/1 compatibility graph as bitmat rows:
// a CM width from matchWidths (or any width up to 200), an avail mask with
// holes, up to 200 FM rows — usually no more than the available CM rows,
// sometimes exactly as many, sometimes more (an unmatchable shape) — with
// an average degree from two to dense, and now and then an empty
// candidate row.
func randomMatchInstance(rng *rand.Rand) (cand *bitmat.Matrix, avail bitmat.Row, rows []int) {
	cols := matchWidths[rng.Intn(len(matchWidths))]
	if rng.Intn(3) == 0 {
		cols = 1 + rng.Intn(200)
	}
	avail = bitmat.NewRow(cols)
	holes := rng.Float64() * 0.5
	for t := 0; t < cols; t++ {
		if rng.Float64() >= holes {
			avail.Set(t)
		}
	}
	free := bitmat.PopCount(avail)
	var n int
	switch rng.Intn(5) {
	case 0:
		n = free + 1 + rng.Intn(10) // more rows than available CM rows
	case 1:
		n = free
	default:
		n = rng.Intn(free + 1)
	}
	if n > 200 {
		n = 200
	}
	cand = bitmat.New(n, cols)
	degree := []float64{2, 4, 8, 16, 0.5 * float64(cols)}[rng.Intn(5)]
	for i := 0; i < n; i++ {
		row := cand.Row(i)
		for t := 0; t < cols; t++ {
			if rng.Float64()*float64(cols) < degree {
				row.Set(t)
			}
		}
	}
	if n > 0 && rng.Intn(4) == 0 {
		cand.Row(rng.Intn(n)).Zero() // an empty candidate row
	}
	// Visit the rows in a random order so the matcher never relies on
	// ascending row indices.
	rows = rng.Perm(n)
	return cand, avail, rows
}

// munkresMatchable is the oracle: a zero-cost complete Munkres assignment
// of the rows onto the available CM rows.
func munkresMatchable(t *testing.T, cand *bitmat.Matrix, avail bitmat.Row, rows []int) bool {
	var cols []int
	for c := avail.NextSet(0); c >= 0; c = avail.NextSet(c + 1) {
		cols = append(cols, c)
	}
	if len(rows) > len(cols) {
		return false // no complete assignment; SolveBinary rejects the shape
	}
	forbidden := make([][]bool, len(rows))
	for k, i := range rows {
		forbidden[k] = make([]bool, len(cols))
		for u, c := range cols {
			forbidden[k][u] = !cand.Get(i, c)
		}
	}
	_, ok, err := munkres.SolveBinary(forbidden)
	if err != nil {
		t.Fatalf("munkres oracle: %v", err)
	}
	return ok
}

// firstFitPlaces reports whether the greedy seed alone places every row.
func firstFitPlaces(cand *bitmat.Matrix, rows []int, avail bitmat.Row) bool {
	free := append(bitmat.Row(nil), avail...)
	for _, i := range rows {
		c := bitmat.FirstAnd(cand.Row(i), free)
		if c < 0 {
			return false
		}
		free.Clear(c)
	}
	return true
}

// TestMatcherAgreesWithMunkres is the matcher's correctness property: on
// random 0/1 graphs it succeeds exactly when the Munkres total is zero, and
// every placement it returns is distinct, available, and a candidate of its
// row. One matcher serves every instance, so buffer reuse across shapes is
// covered too. The run must include matchable instances that first-fit
// alone cannot place, so the augmenting search is what the oracle checks.
func TestMatcherAgreesWithMunkres(t *testing.T) {
	var m matcher
	var augmented, unmatched int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cand, avail, rows := randomMatchInstance(rng)
		place := make([]int, cand.Rows)
		got := m.match(cand, rows, avail, place)
		want := munkresMatchable(t, cand, avail, rows)
		if got != want {
			t.Logf("seed %d: %d rows × %d cols: matcher %v, munkres %v",
				seed, cand.Rows, cand.Cols, got, want)
			return false
		}
		if !got {
			unmatched++
			return true
		}
		if !firstFitPlaces(cand, rows, avail) {
			augmented++
		}
		used := bitmat.NewRow(cand.Cols)
		for _, i := range rows {
			c := place[i]
			if c < 0 || c >= cand.Cols || used.Get(c) || !avail.Get(c) || !cand.Get(i, c) {
				t.Logf("seed %d: row %d placed on CM row %d (used %v)", seed, i, c, c >= 0 && c < cand.Cols && used.Get(c))
				return false
			}
			used.Set(c)
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if augmented == 0 || unmatched == 0 {
		t.Fatalf("property missed an outcome: %d matched only by augmenting, %d unmatched", augmented, unmatched)
	}
	t.Logf("%d matched only by augmenting, %d unmatched", augmented, unmatched)
}

// chainInstance builds a graph first-fit cannot place: row j < k fits CM
// rows j and j+1, and row k fits only CM row 0. First-fit puts row j on j,
// leaving row k blocked until an augmenting path of length k shifts every
// row j to j+1. The k+1 CM rows cross the 64- and 128-bit word boundaries.
func chainInstance(k int) (*bitmat.Matrix, bitmat.Row, []int) {
	cand := bitmat.New(k+1, k+1)
	rows := make([]int, k+1)
	for j := 0; j < k; j++ {
		cand.Set(j, j)
		cand.Set(j, j+1)
		rows[j] = j
	}
	cand.Set(k, 0)
	rows[k] = k
	avail := bitmat.NewRow(k + 1)
	avail.Fill(k + 1)
	return cand, avail, rows
}

// TestMatcherAugmentingPathZeroAllocs pins the zero-alloc contract on the
// augmenting-path search itself, which the random steady-state trials may
// never reach, and checks the path was actually taken.
func TestMatcherAugmentingPathZeroAllocs(t *testing.T) {
	const k = 150
	cand, avail, rows := chainInstance(k)
	place := make([]int, k+1)
	var m matcher
	if !m.match(cand, rows, avail, place) {
		t.Fatal("chain instance must be matchable")
	}
	for j := 0; j < k; j++ {
		if place[j] != j+1 {
			t.Fatalf("row %d on CM row %d, want %d (augmenting path not taken)", j, place[j], j+1)
		}
	}
	if place[k] != 0 {
		t.Fatalf("row %d on CM row %d, want 0", k, place[k])
	}
	if allocs := testing.AllocsPerRun(50, func() {
		m.match(cand, rows, avail, place)
	}); allocs != 0 {
		t.Fatalf("warm matcher allocates %v per run, want 0", allocs)
	}
}
