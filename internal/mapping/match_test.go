package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
	"repro/internal/munkres"
)

// matchWidths are the CM row counts the matcher property draws from: a word
// boundary on each side of 64 and 128 bits, plus arbitrary counts.
var matchWidths = []int{1, 7, 63, 64, 65, 100, 127, 128, 129, 191, 200}

// oneHot returns the n × n function matrix whose row i is one-hot at column
// i. Against a CM matrix whose row t holds the FM rows that fit t, FM row i
// fits CM row t exactly when bit i of CM row t is set, so any 0/1
// compatibility graph is a (fm, cm) pair the matcher tests like a fabric.
func oneHot(n int) *bitmat.Matrix {
	fm := bitmat.New(n, n)
	for i := 0; i < n; i++ {
		fm.Set(i, i)
	}
	return fm
}

// randomMatchInstance draws a random 0/1 compatibility graph as bit
// matrices: a CM row count from matchWidths (or any count up to 200), an
// avail mask with holes, up to 200 FM rows — usually no more than the
// available CM rows, sometimes exactly as many, sometimes more (an
// unmatchable shape) — with an average degree from two to dense, and now
// and then an FM row that fits nothing. CM row t holds the FM rows that fit
// t, and fm is oneHot.
func randomMatchInstance(rng *rand.Rand) (fm, cm *bitmat.Matrix, avail bitmat.Row, rows []int) {
	nCM := matchWidths[rng.Intn(len(matchWidths))]
	if rng.Intn(3) == 0 {
		nCM = 1 + rng.Intn(200)
	}
	avail = bitmat.NewRow(nCM)
	holes := rng.Float64() * 0.5
	for t := 0; t < nCM; t++ {
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
	cm = bitmat.New(nCM, n)
	degree := []float64{2, 4, 8, 16, 0.5 * float64(nCM)}[rng.Intn(5)]
	for i := 0; i < n; i++ {
		for t := 0; t < nCM; t++ {
			if rng.Float64()*float64(nCM) < degree {
				cm.Set(t, i)
			}
		}
	}
	if n > 0 && rng.Intn(4) == 0 {
		i := rng.Intn(n) // an FM row that fits nothing
		for t := 0; t < nCM; t++ {
			cm.Clear(t, i)
		}
	}
	// Visit the rows in a random order so the matcher never relies on
	// ascending row indices.
	rows = rng.Perm(n)
	return oneHot(n), cm, avail, rows
}

// munkresMatchable is the oracle: a zero-cost complete Munkres assignment
// of the rows onto the available CM rows.
func munkresMatchable(t *testing.T, cm *bitmat.Matrix, avail bitmat.Row, rows []int) bool {
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
			forbidden[k][u] = !cm.Get(c, i)
		}
	}
	_, ok, err := munkres.SolveBinary(forbidden)
	if err != nil {
		t.Fatalf("munkres oracle: %v", err)
	}
	return ok
}

// firstFitPlaces reports whether the greedy seed alone places every row.
func firstFitPlaces(fm, cm *bitmat.Matrix, rows []int, avail bitmat.Row) bool {
	free := append(bitmat.Row(nil), avail...)
	for _, i := range rows {
		c, _ := bitmat.FirstSubset(fm.Row(i), cm, free, 0)
		if c < 0 {
			return false
		}
		free.Clear(c)
	}
	return true
}

// TestMatcherAgreesWithMunkres is the matcher's correctness property: on
// random 0/1 graphs stated as bit matrices it succeeds exactly when the
// Munkres total is zero on the same graph, and every placement it returns
// is distinct, available, and fits its row. One matcher serves every
// instance, so buffer reuse across shapes is covered too: a candidate row
// read before this call fills it holds another graph's bits. The run must
// include matchable instances that first-fit alone cannot place, so the
// augmenting search, and with it the lazy fills, is what the oracle
// checks.
func TestMatcherAgreesWithMunkres(t *testing.T) {
	var m matcher
	var augmented, unmatched int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fm, cm, avail, rows := randomMatchInstance(rng)
		place := make([]int, fm.Rows)
		got := m.match(fm, cm, rows, avail, place)
		want := munkresMatchable(t, cm, avail, rows)
		if got != want {
			t.Logf("seed %d: %d FM rows × %d CM rows: matcher %v, munkres %v",
				seed, fm.Rows, cm.Rows, got, want)
			return false
		}
		if !got {
			unmatched++
			return true
		}
		if !firstFitPlaces(fm, cm, rows, avail) {
			augmented++
		}
		used := bitmat.NewRow(cm.Rows)
		for _, i := range rows {
			c := place[i]
			if c < 0 || c >= cm.Rows || used.Get(c) || !avail.Get(c) || !cm.Get(c, i) {
				t.Logf("seed %d: row %d placed on CM row %d (used %v)", seed, i, c, c >= 0 && c < cm.Rows && used.Get(c))
				return false
			}
			used.Set(c)
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(127))}); err != nil {
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
func chainInstance(k int) (fm, cm *bitmat.Matrix, avail bitmat.Row, rows []int) {
	cm = bitmat.New(k+1, k+1)
	rows = make([]int, k+1)
	for j := 0; j < k; j++ {
		cm.Set(j, j)
		cm.Set(j+1, j)
		rows[j] = j
	}
	cm.Set(0, k)
	rows[k] = k
	avail = bitmat.NewRow(k + 1)
	avail.Fill(k + 1)
	return oneHot(k + 1), cm, avail, rows
}

// TestMatcherAugmentingPathZeroAllocs pins the zero-alloc contract on the
// augmenting-path search itself, which the random steady-state trials may
// never reach, and checks the path was actually taken.
func TestMatcherAugmentingPathZeroAllocs(t *testing.T) {
	const k = 150
	fm, cm, avail, rows := chainInstance(k)
	place := make([]int, k+1)
	var m matcher
	if !m.match(fm, cm, rows, avail, place) {
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
		m.match(fm, cm, rows, avail, place)
	}); allocs != 0 {
		t.Fatalf("warm matcher allocates %v per run, want 0", allocs)
	}
}
