package bitmat

import (
	"math/rand"
	"testing"
)

// TestMatchRowAgainstWidths sweeps the kernels across the widths that
// exercise every dispatch and tail combination — single-word at Table II
// fabric widths (20 and 44 columns), exactly one word, word-straddling, two
// words, and beyond — at densities from never-matching to always-matching,
// with row counts that cover the single-word kernel's 64-row body, its
// 8-row tail and every scalar tail length. Deterministic complement to the
// quick/fuzz properties.
func TestMatchRowAgainstWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cols := range []int{20, 44, 63, 64, 65, 127, 128, 129} {
		for _, rows := range []int{1, 5, 7, 8, 9, 16, 63, 64, 65, 100, 127, 128, 129, 191, 300} {
			for _, density := range []float64{0.0, 0.3, 0.35, 0.7, 0.9, 1.0} {
				cm := randMatrix(rng, rows, cols, density)
				fm := NewRow(cols)
				for c := 0; c < cols; c++ {
					if rng.Float64() < 0.3 {
						fm.Set(c)
					}
				}
				got, want := NewRow(rows), NewRow(rows)
				MatchRowAgainst(fm, cm, got)
				matchRowAgainstScalar(fm, cm, want)
				if !Equal(got, want) {
					t.Fatalf("%dx%d density %.2f: batch kernel disagrees with scalar", rows, cols, density)
				}
			}
		}
	}
}

// TestMatchSingleWordVariantsAgree pins every implementation of the
// single-word match — the single-word kernel, the multi-word kernel run at one
// word and the scalar reference — against each other, bit for bit, on full
// 64-bit CM words. Its row counts mix the single-word kernel's 64-row body,
// 8-row tail and one-row tail, its densities run from never-matching to
// always-matching, and the FM row's popcount varies.
func TestMatchSingleWordVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{1, 5, 8, 9, 16, 63, 64, 65, 100, 128, 129, 191, 300} {
		for _, density := range []float64{0, 0.3, 0.7, 1} {
			cm := New(rows, 64)
			for i := range cm.bits {
				if rng.Float64() < density {
					cm.bits[i] = ^uint64(0)
				} else {
					cm.bits[i] = rng.Uint64()
				}
			}
			fm := Row{rng.Uint64() >> (rng.Intn(63) + 1)} // vary the popcount of fm
			single, multi, want := NewRow(rows), NewRow(rows), NewRow(rows)
			matchSingleWord(fm[0], cm.bits, single, rows)
			matchMultiWord(fm, cm.bits, multi, rows, 1)
			matchRowAgainstScalar(fm, cm, want)
			if !Equal(single, want) {
				t.Fatalf("rows=%d density=%.1f: single-word kernel disagrees with scalar", rows, density)
			}
			if !Equal(multi, want) {
				t.Fatalf("rows=%d density=%.1f: one-word multi-word kernel disagrees with scalar", rows, density)
			}
		}
	}
}

// TestMatchSingleAndMultiWordAgree pins the two kernels against each other
// on the one width both can express semantically: a w-word kernel run on <=64
// columns must equal the single-word fast path.
func TestMatchSingleAndMultiWordAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(130)
		cols := 1 + rng.Intn(64)
		cm := randMatrix(rng, rows, cols, 0.8)
		fm := NewRow(cols)
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				fm.Set(c)
			}
		}
		single, multi := NewRow(rows), NewRow(rows)
		matchSingleWord(fm[0], cm.bits, single, rows)
		matchMultiWord(fm, cm.bits, multi, rows, cm.words)
		if !Equal(single, multi) {
			t.Fatalf("trial %d (%dx%d): single-word and multi-word kernels disagree", trial, rows, cols)
		}
	}
}

// FuzzMatchRowAgainst drives the batch kernels with fuzz-shaped matrices and
// rows, checking them against the scalar reference. The corpus seeds cover the
// word-boundary widths; the fuzzer mutates dimensions, density, and content.
func FuzzMatchRowAgainst(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(44), 0.8, 0.3)
	for _, w := range []uint16{63, 64, 65, 127, 128, 129} {
		f.Add(int64(w), w, w, 0.5, 0.5)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint16, cmDensity, fmDensity float64) {
		nr := int(rows%512) + 1
		nc := int(cols%512) + 1
		if cmDensity < 0 || cmDensity > 1 {
			cmDensity = 0.5
		}
		if fmDensity < 0 || fmDensity > 1 {
			fmDensity = 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		cm := randMatrix(rng, nr, nc, cmDensity)
		fm := NewRow(nc)
		for c := 0; c < nc; c++ {
			if rng.Float64() < fmDensity {
				fm.Set(c)
			}
		}
		got, want := NewRow(nr), NewRow(nr)
		MatchRowAgainst(fm, cm, got)
		matchRowAgainstScalar(fm, cm, want)
		if !Equal(got, want) {
			t.Fatalf("%dx%d: batch kernel disagrees with scalar reference", nr, nc)
		}
	})
}

// firstSubsetOracle is FirstSubset restated over matchRowAgainstScalar: the
// lowest row >= from set in both the scalar candidate bitset and mask, and
// the number of mask rows in [from, that row], or in [from, rows) on a miss.
func firstSubsetOracle(fm Row, cm *Matrix, mask Row, from int) (t, tested int) {
	cand := NewRow(cm.Rows)
	matchRowAgainstScalar(fm, cm, cand)
	for j := max(from, 0); j < cm.Rows; j++ {
		if mask.Get(j) {
			tested++
			if cand.Get(j) {
				return j, tested
			}
		}
	}
	return -1, tested
}

// checkFirstSubset compares FirstSubset with the oracle from every start
// row, one before the first and one past the last included.
func checkFirstSubset(t *testing.T, fm Row, cm *Matrix, mask Row) {
	t.Helper()
	for from := -1; from <= cm.Rows+1; from++ {
		got, gotN := FirstSubset(fm, cm, mask, from)
		want, wantN := firstSubsetOracle(fm, cm, mask, from)
		if got != want || gotN != wantN {
			t.Fatalf("%dx%d from %d: FirstSubset = (%d, %d tested), want (%d, %d)",
				cm.Rows, cm.Cols, from, got, gotN, want, wantN)
		}
	}
}

// randomMask draws a rows-column mask with the given density.
func randomMask(rng *rand.Rand, rows int, density float64) Row {
	mask := NewRow(rows)
	for j := 0; j < rows; j++ {
		if rng.Float64() < density {
			mask.Set(j)
		}
	}
	return mask
}

// TestFirstSubsetWidths sweeps the masked first-fit kernel across the
// single-word widths of Table II fabrics, both sides of the 64- and 128-bit
// word boundaries and exp5's 142 columns, with row counts on both sides of
// the same boundaries, CM densities from never-fitting to always-fitting,
// and masks from empty to full — every start row each time.
func TestFirstSubsetWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cols := range []int{0, 20, 44, 63, 64, 65, 127, 128, 129, 142} {
		for _, rows := range []int{1, 7, 63, 64, 65, 127, 128, 129, 200} {
			for _, density := range []float64{0, 0.7, 0.95, 1} {
				cm := randMatrix(rng, rows, cols, density)
				fm := NewRow(cols)
				for c := 0; c < cols; c++ {
					if rng.Float64() < 0.2 {
						fm.Set(c)
					}
				}
				for _, maskDensity := range []float64{0, 0.3, 1} {
					checkFirstSubset(t, fm, cm, randomMask(rng, rows, maskDensity))
				}
			}
		}
	}
}

// FuzzFirstSubset drives the masked first-fit kernel with fuzz-shaped
// matrices, masks and start rows, checking it against matchRowAgainstScalar
// restricted to the mask and the start row. The corpus seeds put widths on
// both sides of 64 and 128 columns and row counts on both sides of the
// mask's word boundaries; the fuzzer mutates dimensions, densities and
// content.
func FuzzFirstSubset(f *testing.F) {
	f.Add(int64(1), uint16(294), uint16(40), 0.9, 0.1, 0.5, uint16(0))
	f.Add(int64(2), uint16(139), uint16(142), 0.95, 0.05, 0.8, uint16(70))
	for _, w := range []uint16{63, 64, 65, 127, 128, 129} {
		f.Add(int64(w), w, w, 0.9, 0.1, 0.5, w/2)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint16, cmDensity, fmDensity, maskDensity float64, from uint16) {
		nr := int(rows%512) + 1
		nc := int(cols%512) + 1
		clamp := func(p float64) float64 {
			if p >= 0 && p <= 1 {
				return p
			}
			return 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		cm := randMatrix(rng, nr, nc, clamp(cmDensity))
		fm := NewRow(nc)
		for c := 0; c < nc; c++ {
			if rng.Float64() < clamp(fmDensity) {
				fm.Set(c)
			}
		}
		mask := randomMask(rng, nr, clamp(maskDensity))
		start := int(from) % (nr + 2)
		got, gotN := FirstSubset(fm, cm, mask, start)
		want, wantN := firstSubsetOracle(fm, cm, mask, start)
		if got != want || gotN != wantN {
			t.Fatalf("%dx%d from %d: FirstSubset = (%d, %d tested), want (%d, %d)", nr, nc, start, got, gotN, want, wantN)
		}
	})
}
