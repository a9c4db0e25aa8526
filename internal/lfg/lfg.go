// Package lfg is the random source of the Monte Carlo harness: math/rand's
// additive lagged-Fibonacci generator (x[n] = x[n-607] + x[n-273] mod 2⁶⁴),
// reimplemented so that reseeding is cheap and a row of defect-map draws is
// generated and classified in one loop (Below), while the stream stays value
// for value the one rand.NewSource(seed) produces.
//
// Reproducibility contract. A Monte Carlo sample's outcome is a function of
// its seed alone: montecarlo.Run seeds one Source per batch with
// montecarlo.SampleSeed(seed, sample) before each trial, and everything the
// trial draws comes from that stream in a fixed order. A defect map consumes
// one Int63 per crosspoint in row-major order, plus one more for every draw
// that Float64 would have redrawn (see defect.Map.Regenerate). Because this
// Source reproduces math/rand's stream exactly, every Psucc computed through
// it equals the one computed with rand.New(rand.NewSource(seed)) and the
// per-cell Float64 sampler; the property tests of this package and of
// package defect hold both sides to that.
//
// Nothing is copied from math/rand: the 607-word seed table is recovered at
// init from rand.NewSource(1)'s first 607 outputs, by running the generator
// backwards from them and removing the Lehmer seeding part.
package lfg

import (
	"math/bits"
	"math/rand"
)

const (
	length   = 607        // register length, the long lag
	lag      = 273        // feedback tap, the short lag
	mask     = 1<<63 - 1  // Int63 keeps the low 63 bits
	m31      = 1<<31 - 1  // Lehmer modulus, a Mersenne prime
	mult     = 48271      // Lehmer multiplier
	warmup   = 20         // Lehmer steps discarded before the first word
	seedZero = 89_482_311 // math/rand's stand-in for a seed ≡ 0 mod m31
	// Seed runs the register's Lehmer chain as four lanes of span words;
	// the first three lanes hold span words, the last span-1.
	lanes = 4
	span  = (length + lanes) / lanes // 152
	steps = 3 * span                 // Lehmer steps between two lanes' starts
	tail  = span - 1                 // words in the last lane
)

// Source is a seedable math/rand-identical stream. It implements
// rand.Source64, so rand.New(src) draws the same Intn, Float64 and Perm
// sequences as rand.New(rand.NewSource(seed)). Not safe for concurrent use.
//
// The register is stored reversed (vec[j] is math/rand's vec[606-j]), so the
// generator walks it upwards: draw k adds vec[t] into vec[f] and returns it,
// with f = t+273 mod 607.
type Source struct {
	vec  [length]uint64
	t, f int // next tap and feed indices into vec
}

var (
	// cooked[j] is the seed table word XORed into register word j (reversed
	// order, like Source.vec).
	cooked [length]uint64
	// jump[k] is mult^(warmup+1+k·steps) mod m31: the Lehmer multiplier
	// that carries a normalized seed straight to lane k's first value.
	jump [lanes]uint64
)

func init() {
	jump[0] = pow31(mult, warmup+1)
	step := pow31(mult, steps)
	for k := 1; k < lanes; k++ {
		jump[k] = mulmod(jump[k-1], step)
	}
	// Seed a Source with a zero table: its register is then the Lehmer part
	// alone. After 607 draws every register word has been overwritten once,
	// by a known output; undoing the draws in reverse order restores the
	// seeded register, and the XOR of the two is the table.
	var s Source
	s.Seed(1)
	ref := rand.NewSource(1).(rand.Source64)
	var reg [length]uint64
	for k := 0; k < length; k++ {
		reg[(lag+k)%length] = ref.Uint64()
	}
	for k := length - 1; k >= 0; k-- {
		reg[(lag+k)%length] -= reg[k]
	}
	for j := range cooked {
		cooked[j] = reg[j] ^ s.vec[j]
	}
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the stream to rand.NewSource(seed)'s. math/rand fills the
// register from one Lehmer chain, x ← 48271·x mod (2³¹−1), three steps per
// word after 20 warm-up steps, reduced by Schrage's division; this runs four
// lanes of that chain side by side, each entered by a precomputed jump, and
// reduces with the Mersenne fold (p & m31) + p>>31.
//
//xbar:hotpath
func (s *Source) Seed(seed int64) {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = seedZero
	}
	x := uint64(seed)
	// aK is lane K's next Lehmer value; each word takes three steps. The
	// lanes are written out so that their chains stay independent in
	// registers, which is where the speed comes from.
	a0, a1, a2, a3 := mulmod(jump[0], x), mulmod(jump[1], x), mulmod(jump[2], x), mulmod(jump[3], x)
	v := &s.vec
	for i := 0; i < span; i++ {
		b0, b1, b2, b3 := step31(a0), step31(a1), step31(a2), step31(a3)
		c0, c1, c2, c3 := step31(b0), step31(b1), step31(b2), step31(b3)
		j := length - 1 - i
		v[j] = a0<<40 ^ b0<<20 ^ c0 ^ cooked[j]
		v[j-span] = a1<<40 ^ b1<<20 ^ c1 ^ cooked[j-span]
		v[j-2*span] = a2<<40 ^ b2<<20 ^ c2 ^ cooked[j-2*span]
		if i == tail {
			break // the last lane holds one word fewer
		}
		v[j-3*span] = a3<<40 ^ b3<<20 ^ c3 ^ cooked[j-3*span]
		a0, a1, a2, a3 = step31(c0), step31(c1), step31(c2), step31(c3)
	}
	s.t, s.f = 0, lag
}

// step31 is one Lehmer step. mult·x < 2⁴⁷, so one fold leaves r < 2³¹+2¹⁶
// and a second fold reduces it fully (r never equals m31: m31 is prime and
// x is not a multiple of it).
//
//xbar:hotpath
func step31(x uint64) uint64 {
	p := x * mult
	r := p&m31 + p>>31
	return r&m31 + r>>31
}

// mulmod returns a·b mod m31 for a, b < 2³¹.
//
//xbar:hotpath
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&m31 + p>>31 // < 2³²
	r = r&m31 + r>>31  // ≤ m31
	if r >= m31 {
		r -= m31
	}
	return r
}

func pow31(b, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = mulmod(r, b)
		}
		b = mulmod(b, b)
	}
	return r
}

// Uint64 returns the next 64-bit value of the stream.
//
//xbar:hotpath
func (s *Source) Uint64() uint64 {
	x := s.vec[s.f] + s.vec[s.t]
	s.vec[s.f] = x
	if s.t++; s.t == length {
		s.t = 0
	}
	if s.f++; s.f == length {
		s.f = 0
	}
	return x
}

// Int63 returns the next value of the stream as a non-negative int64.
//
//xbar:hotpath
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask) }

// RedrawFrom is the smallest Int63 value rand.Float64 draws again:
// float64(x) rounds up to 2⁶³, and so x/2⁶³ to 1, from 2⁶³−512 on.
const RedrawFrom = 1<<63 - 512

// Below draws n values as n calls of rand.New(s).Float64 would and marks
// each against two thresholds in [0, RedrawFrom]: bit k%64 of lo[k/64] is
// set when the k-th value's Int63 is below tlo, and of hi[k/64] when it is
// below thi. Like Float64, it skips every Int63 at or above RedrawFrom and
// takes the next in its place. lo and hi need (n+63)/64 words each and may
// be one slice; bits past n in the last word are zero. With tlo == thi each
// value is compared once.
//
// It is the inner loop of the defect sampler (defect.Map.Regenerate calls it
// once per row): each draw is generated, tested and folded into its word in
// one pass, and nothing is written but the register and the words.
//
//xbar:hotpath
func (s *Source) Below(lo, hi []uint64, n int, tlo, thi int64) {
	for w := 0; n > 0; w++ {
		cells := min(n, 64)
		if tlo == thi {
			lo[w] = s.below(cells, tlo)
			hi[w] = lo[w]
		} else {
			lo[w], hi[w] = s.below2(cells, tlo, thi)
		}
		n -= cells
	}
}

// below returns the word of Below's next cells (1 to 64) values that are
// below th. Each kept value doubles the word and adds its bit, the sign bit
// of v-th, so the first value ends at bit cells-1 until the final reversal
// puts it at bit 0. The draws run in stretches (see stretch) that also end
// at a value in the redraw zone, which is drawn but not kept, so the inner
// loop carries no wrap test and one branch that is all but never taken.
//
//xbar:hotpath
func (s *Source) below(cells int, th int64) uint64 {
	var a uint64
	for kept := 0; kept < cells; {
		fv, tv := s.stretch(cells - kept)
		k := 0
		for ; k < len(fv); k++ {
			x := fv[k] + tv[k]
			fv[k] = x
			v := int64(x & mask)
			if v+(1<<63-RedrawFrom) < 0 { // v >= RedrawFrom
				break
			}
			a = a<<1 + uint64(v-th)>>63
		}
		kept += k
		s.advance(min(k+1, len(fv)))
	}
	return bits.Reverse64(a) >> (64 - cells)
}

// below2 is below for two thresholds at once.
//
//xbar:hotpath
func (s *Source) below2(cells int, tlo, thi int64) (lo, hi uint64) {
	for kept := 0; kept < cells; {
		fv, tv := s.stretch(cells - kept)
		k := 0
		for ; k < len(fv); k++ {
			x := fv[k] + tv[k]
			fv[k] = x
			v := int64(x & mask)
			if v+(1<<63-RedrawFrom) < 0 { // v >= RedrawFrom
				break
			}
			lo = lo<<1 + uint64(v-tlo)>>63
			hi = hi<<1 + uint64(v-thi)>>63
		}
		kept += k
		s.advance(min(k+1, len(fv)))
	}
	return bits.Reverse64(lo) >> (64 - cells), bits.Reverse64(hi) >> (64 - cells)
}

// stretch returns the feed and tap windows of the next draws: at most n, and
// none past the point where the tap or the feed index wraps.
//
//xbar:hotpath
func (s *Source) stretch(n int) (fv, tv []uint64) {
	m := min(n, length-s.t, length-s.f)
	return s.vec[s.f:][:m], s.vec[s.t:][:m]
}

// advance moves the tap and feed indices past k draws of a stretch.
//
//xbar:hotpath
func (s *Source) advance(k int) {
	if s.t += k; s.t == length {
		s.t = 0
	}
	if s.f += k; s.f == length {
		s.f = 0
	}
}
