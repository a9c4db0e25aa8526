package lfg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// threshold is the integer form of u < p that the defect sampler uses: the
// smallest x in [0, RedrawFrom] with float64(x)/2⁶³ >= p, so that Float64
// is below p exactly when its Int63 is below threshold(p).
func threshold(p float64) int64 {
	lo, hi := int64(0), int64(RedrawFrom)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// plant sets s's register so that its draws at the given offsets from the
// current position (each below 607) come out as the given 64-bit values,
// leaving every other draw as it was. A draw's feed word is not written
// before that draw, so the draw's output is set through its feed word; a
// copy of s supplies the tap word each draw will read.
func plant(s *Source, at map[int]uint64) {
	offsets := make([]int, 0, len(at))
	for j := range at {
		if j < 0 || j >= length {
			panic("plant: offset outside the register")
		}
		offsets = append(offsets, j)
	}
	sort.Ints(offsets)
	sim := *s
	for j := 0; len(offsets) > 0; j++ {
		if j == offsets[0] {
			s.vec[sim.f] = at[j] - sim.vec[sim.t]
			sim.vec[sim.f] = s.vec[sim.f]
			offsets = offsets[1:]
		}
		sim.Uint64()
	}
}

// checkBelow runs Below over n cells on src and compares it, cell by cell
// and on the stream position afterwards, with rand.Float64 drawn from a
// copy of src against the rates plo and phi.
func checkBelow(t *testing.T, context string, src *Source, n int, plo, phi float64) {
	t.Helper()
	ref := *src
	r := rand.New(&ref)
	lo, hi := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
	src.Below(lo, hi, n, threshold(plo), threshold(phi))
	for k := 0; k < n; k++ {
		u := r.Float64()
		bit := uint64(1) << (k % 64)
		if got := lo[k/64]&bit != 0; got != (u < plo) {
			t.Fatalf("%s: cell %d of %d below %v: %v, Float64 %v", context, k, n, plo, got, u)
		}
		if got := hi[k/64]&bit != 0; got != (u < phi) {
			t.Fatalf("%s: cell %d of %d below %v: %v, Float64 %v", context, k, n, phi, got, u)
		}
	}
	for w := range lo {
		if rest := n - 64*w; rest < 64 && (lo[w]|hi[w])>>rest != 0 {
			t.Fatalf("%s: bits past cell %d set in word %d", context, n, w)
		}
	}
	if got, want := src.Int63(), ref.Int63(); got != want {
		t.Fatalf("%s: stream position drifted after Below", context)
	}
}

// TestBelowPlantedMatchesFloat64 plants values in the register and holds
// Below to rand.Float64 on them: values Float64 redraws (≥ 2⁶³−512) on a
// row's last cell, on bits 63 and 64, in runs of three and where the tap or
// feed index wraps in the middle of a word, plus the largest value Float64
// keeps and the values on each side of a threshold. Each case runs with one
// threshold and with two.
func TestBelowPlantedMatchesFloat64(t *testing.T) {
	const top = 1 << 63 // a planted value's top bit, which Int63 drops
	zone := []uint64{RedrawFrom, 1<<63 - 1, top | RedrawFrom + 7}
	const kept = RedrawFrom - 1 // 2⁶³−513
	type tc struct {
		name string
		n    int
		skip int // draws taken before planting: moves the wrap points
		at   map[int]uint64
	}
	cases := []tc{
		{"last cell", 44, 0, map[int]uint64{43: zone[0]}},
		{"last cell of a long row", 130, 0, map[int]uint64{129: zone[1], 130: zone[2]}},
		{"bits 63 and 64", 130, 0, map[int]uint64{63: zone[0], 65: zone[1]}},
		{"run of three", 100, 0, map[int]uint64{10: zone[0], 11: zone[1], 12: zone[2], 70: zone[0], 71: zone[0], 72: zone[0]}},
		{"largest kept value", 70, 0, map[int]uint64{0: kept, 63: kept, 64: top | kept, 69: kept}},
	}
	// The tap index wraps after length-t draws and the feed index after
	// length-f; start each so that it wraps 30 cells into a word.
	fresh := New(0)
	for _, wrapAt := range []int{length - fresh.t - 30, length - fresh.f - 30} {
		cases = append(cases,
			tc{"wrap", 100, wrapAt, map[int]uint64{29: zone[0], 30: zone[1], 31: zone[2]}},
			tc{"wrap on the redraw", 100, wrapAt, map[int]uint64{30: zone[0]}},
			tc{"wrap at word end", 64, wrapAt + 30 - 64, map[int]uint64{63: zone[1]}})
	}
	for _, c := range cases {
		for _, rates := range [][2]float64{{0.10, 0.10}, {0.10, 0.10 + 0.01}, {0.5, 1}, {0, 0.2}} {
			plo, phi := rates[0], rates[1]
			at := make(map[int]uint64, len(c.at)+4)
			for j, x := range c.at {
				at[j] = x
			}
			// The values on each side of both thresholds, where < and <=
			// part.
			for i, x := range []int64{threshold(plo), threshold(plo) - 1, threshold(phi), threshold(phi) - 1} {
				if j := 2 + 5*i; x >= 0 && at[j] == 0 {
					at[j] = uint64(x)
				}
			}
			for _, seed := range []int64{1, 2018, -7} {
				src := New(seed)
				for range c.skip {
					src.Uint64()
				}
				plant(src, at)
				checkBelow(t, fmt.Sprintf("%s, seed %d, rates %v", c.name, seed, rates), src, c.n, plo, phi)
			}
		}
	}
}

// FuzzBelow holds Below to rand.Float64 over the seed, the draws taken
// before the row, the row length (0 to 200), two rates and planted values:
// each planted byte is an offset, and its position in the slice picks a
// redraw-zone value, the largest kept value or a threshold neighbour.
func FuzzBelow(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(44), 0.10, 0.10, []byte{43})
	f.Add(int64(2018), uint16(0), uint8(130), 0.10, 0.11, []byte{63, 64, 65})
	f.Add(int64(-7), uint16(607-273-30), uint8(100), 0.2, 0.3, []byte{29, 30, 31, 2, 7})
	f.Add(int64(5), uint16(577), uint8(200), 0.0, 1.0, []byte{0, 1, 2, 3, 4, 5, 6, 199})
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, n uint8, plo, phi float64, planted []byte) {
		if !(plo >= 0 && plo <= 1 && phi >= 0 && phi <= 1) {
			t.Skip()
		}
		tlo, thi := threshold(plo), threshold(phi)
		values := []uint64{RedrawFrom, 1<<63 - 1, 1<<63 | RedrawFrom, RedrawFrom - 1,
			uint64(tlo), uint64(tlo - 1), uint64(thi), uint64(thi - 1)}
		at := make(map[int]uint64, len(planted))
		for i, j := range planted {
			at[int(j)] = values[i%len(values)] &^ (1 << 63) // Int63 drops the top bit; a value of -1 wraps below it
		}
		src := New(seed)
		for range int(skip) % length {
			src.Uint64()
		}
		plant(src, at)
		checkBelow(t, "fuzz", src, int(n)%201, plo, phi)
	})
}
