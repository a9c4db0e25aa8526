package lfg

import (
	"math"
	"math/rand"
	"testing"
)

// drawsPerSeed covers one alu4-sized fabric (583×44 = 25,652 crosspoints),
// the largest defect map a Table II trial draws from one seed.
const drawsPerSeed = 26_000

// streamSeeds returns the seeds the stream property runs over: the edge
// cases of math/rand's seed normalization (0, its stand-in, negatives,
// multiples of 2³¹−1, values above 2⁶², the int64 extremes), the Monte Carlo
// harness's per-sample schedule, and random fill to n seeds.
func streamSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, seedZero, -seedZero,
		m31, -m31, 2 * m31, -2 * m31, 1000 * m31, m31 - 1, m31 + 1, -(m31 - 1), -(m31 + 1),
		1 << 31, 1 << 32, 1<<62 + 1, 1<<62 + 12345, 1<<63 - 1, 1<<63 - m31,
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + m31,
	}
	for i := 0; i < 200; i++ {
		// montecarlo.SampleSeed's schedule at the paper studies' seed and at
		// a negative one.
		seeds = append(seeds, 2018+int64(i)*2_147_483_659, -7+int64(i)*2_147_483_659)
	}
	r := rand.New(rand.NewSource(20260419))
	for len(seeds) < n {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand is the stream contract: for every seed, the
// Source's Int63, Uint64, Below and (through rand.New) Float64 draws equal
// rand.NewSource(seed)'s, whatever the method mix and Below's row length.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := streamSeeds(1000)
	chooser := rand.New(rand.NewSource(3))
	const maxRow = 700
	lo, hi := make([]uint64, (maxRow+63)/64), make([]uint64, (maxRow+63)/64)
	src := New(0)
	for _, seed := range seeds {
		src.Seed(seed)
		ours := rand.New(src)
		ref := rand.New(rand.NewSource(seed))
		for drawn := 0; drawn < drawsPerSeed; {
			n := 1 + chooser.Intn(maxRow)
			switch method := chooser.Intn(4); method {
			case 0:
				for k := 0; k < n; k++ {
					if got, want := src.Int63(), ref.Int63(); got != want {
						t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, drawn+k, got, want)
					}
				}
			case 1:
				for k := 0; k < n; k++ {
					if got, want := src.Uint64(), ref.Uint64(); got != want {
						t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, drawn+k, got, want)
					}
				}
			case 2:
				for k := 0; k < n; k++ {
					if got, want := ours.Float64(), ref.Float64(); got != want {
						t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, drawn+k, got, want)
					}
				}
			case 3:
				tlo := chooser.Int63n(RedrawFrom + 1)
				thi := chooser.Int63n(RedrawFrom + 1)
				src.Below(lo, hi, n, tlo, thi)
				for k := 0; k < n; k++ {
					x := ref.Int63()
					for x >= RedrawFrom {
						x = ref.Int63()
					}
					bit := uint64(1) << (k % 64)
					if got := lo[k/64]&bit != 0; got != (x < tlo) {
						t.Fatalf("seed %d draw %d: Below row of %d, cell %d: below tlo %v, value %d", seed, drawn+k, n, k, got, x)
					}
					if got := hi[k/64]&bit != 0; got != (x < thi) {
						t.Fatalf("seed %d draw %d: Below row of %d, cell %d: below thi %v, value %d", seed, drawn+k, n, k, got, x)
					}
				}
			}
			drawn += n
		}
	}
}

// TestRandWrapperMatches pins what the mapping layer relies on when it wraps
// a Source in rand.New: Seed through the wrapper restarts the same stream,
// and Intn/Perm agree with a math/rand-backed Rand.
func TestRandWrapperMatches(t *testing.T) {
	ours := rand.New(New(5))
	ref := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		seed := int64(round*31 - 7)
		ours.Seed(seed)
		ref.Seed(seed)
		for k := 0; k < 500; k++ {
			if got, want := ours.Intn(97), ref.Intn(97); got != want {
				t.Fatalf("seed %d: Intn draw %d: %d, want %d", seed, k, got, want)
			}
		}
		got, want := ours.Perm(40), ref.Perm(40)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Perm differs at %d", seed, i)
			}
		}
	}
}

// TestSeedAllocatesNothing pins the harness contract: reseeding and a
// row of draws reuse the Source's register.
func TestSeedAllocatesNothing(t *testing.T) {
	src := New(1)
	lo, hi := make([]uint64, 16), make([]uint64, 16)
	allocs := testing.AllocsPerRun(20, func() {
		src.Seed(42)
		src.Below(lo, hi, 1000, 1<<62, 1<<62+1<<60)
	})
	if allocs != 0 {
		t.Fatalf("Seed+Below allocate %v times, want 0", allocs)
	}
}

func BenchmarkSeed(b *testing.B) {
	src := New(0)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i) * 2_147_483_659)
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	src := rand.NewSource(0)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i) * 2_147_483_659)
	}
}

// BenchmarkBelow draws and classifies one alu4 fabric row by row (583
// rows of 44 columns) at the paper's 10 % rate, one threshold per cell.
func BenchmarkBelow(b *testing.B) {
	src := New(1)
	row := make([]uint64, 1)
	th := threshold(0.10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 583; r++ {
			src.Below(row, row, 44, th, th)
		}
	}
}
