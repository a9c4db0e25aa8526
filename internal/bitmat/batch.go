package bitmat

import "math/bits"

// Candidate matching: the enumeration kernels of the mapping stack. The
// per-pair test of mapping.rowMatches answers "does FM row i fit CM row j"
// for one j. The mapping algorithms ask it in two shapes, and each has its
// kernel here:
//
//   - FirstSubset answers "which is the first CM row in this mask that FM
//     row i fits", testing rows top to bottom and stopping at the first fit:
//     the greedy and backtracking scans of HBA and the matcher's first-fit
//     seed.
//   - MatchRowAgainst answers the question for every j in one pass over the
//     CM words, producing the candidate bitset of an FM row — bit j set iff
//     fmRow &^ cmRow_j == 0 — which the matcher's augmenting search then
//     enumerates with word scans.
//
// MatchRowAgainst's inner loops process eight CM rows per iteration with
// the bounds checks hoisted out of the word loop, and fabrics of at most 64
// columns (every Table II fabric but bw's and exp5's) take a single-word
// fast path that retires 64 CM rows per output-word store. Every kernel is property-tested against
// matchRowAgainstScalar.

// MatchRowAgainst computes the candidate bitset of one packed FM row against
// every row of a CM matrix: bit j of out is set iff fm is a subset of
// cm.Row(j) (fm &^ cmRow == 0, the paper's row-matching rule). fm must be
// packed for cm.Cols columns (len(fm) == Words(cm.Cols)) and out for cm.Rows
// columns (len(out) == Words(cm.Rows)); out is overwritten, and the
// packed-row contract is preserved (bits at positions >= cm.Rows stay zero).
//
//xbar:hotpath
func MatchRowAgainst(fm Row, cm *Matrix, out Row) {
	for i := range out {
		out[i] = 0
	}
	rows, w := cm.Rows, cm.words
	if w == 0 {
		// A zero-column FM row is a subset of everything.
		for j := 0; j < rows; j++ {
			out.Set(j)
		}
		return
	}
	bits := cm.bits
	fm = fm[:w] // one check here buys bounds-check-free access below
	if w == 1 {
		matchSingleWord(fm[0], bits, out, rows)
		return
	}
	matchMultiWord(fm, bits, out, rows, w)
}

// FirstSubset is the masked first-fit kernel: it returns the lowest CM row
// t >= from that is set in mask and that fm fits (fm &^ cm.Row(t) == 0),
// or -1 when none does. tested is the number of mask rows it examined —
// those in [from, t], or every mask row at or after from on a miss — so it
// counts exactly the pair tests a top-to-bottom scan makes. fm must be
// packed for cm.Cols columns and mask for cm.Rows columns. Rows outside
// mask are skipped a word at a time; fabrics of at most 64 columns take a
// single-word path, wider ones compare every word of the row.
//
//xbar:hotpath
func FirstSubset(fm Row, cm *Matrix, mask Row, from int) (t, tested int) {
	if from < 0 {
		from = 0
	}
	k := from / wordBits
	if k >= len(mask) {
		return -1, 0
	}
	w, rows := cm.words, cm.bits
	m := mask[k] &^ (uint64(1)<<uint(from%wordBits) - 1)
	if w == 1 {
		f := fm[0]
		for {
			for ; m != 0; m &= m - 1 {
				j := k*wordBits + bits.TrailingZeros64(m)
				tested++
				if f&^rows[j] == 0 {
					return j, tested
				}
			}
			if k++; k == len(mask) {
				return -1, tested
			}
			m = mask[k]
		}
	}
	fm = fm[:w]
	for {
		for ; m != 0; m &= m - 1 {
			j := k*wordBits + bits.TrailingZeros64(m)
			tested++
			r := rows[j*w : j*w+w : j*w+w]
			var miss uint64
			for i, f := range fm {
				miss |= f &^ r[i]
			}
			if miss == 0 {
				return j, tested
			}
		}
		if k++; k == len(mask) {
			return -1, tested
		}
		m = mask[k]
	}
}

// matchSingleWord is the single-word kernel (<= 64 fabric columns): each CM
// row is one word, so the candidate test is one AND-NOT. It retires a full
// 64-row output word per outer iteration, accumulating the eight octets in a
// register and storing once. The subset tests keep the comparison form the
// compiler lowers to flag ops without branches (TESTQ+SETEQ on amd64), so
// throughput stays density-independent. The fewer than 64 tail rows go eight
// at a time through one bounds-checked subslice, then one at a time.
//
//xbar:hotpath
func matchSingleWord(f uint64, bits []uint64, out Row, rows int) {
	full := rows &^ 63
	for base := 0; base < full; base += 64 {
		blk := bits[base : base+64 : base+64]
		var w uint64
		for k := 0; k < 64; k += 8 {
			var oct uint64
			if f&^blk[k] == 0 {
				oct = 1
			}
			if f&^blk[k+1] == 0 {
				oct |= 1 << 1
			}
			if f&^blk[k+2] == 0 {
				oct |= 1 << 2
			}
			if f&^blk[k+3] == 0 {
				oct |= 1 << 3
			}
			if f&^blk[k+4] == 0 {
				oct |= 1 << 4
			}
			if f&^blk[k+5] == 0 {
				oct |= 1 << 5
			}
			if f&^blk[k+6] == 0 {
				oct |= 1 << 6
			}
			if f&^blk[k+7] == 0 {
				oct |= 1 << 7
			}
			w |= oct << uint(k)
		}
		// out is zeroed by MatchRowAgainst, so a plain store suffices.
		out[base>>6] = w
	}
	j := full
	for ; j+7 < rows; j += 8 {
		blk := bits[j : j+8 : j+8]
		var oct uint64
		if f&^blk[0] == 0 {
			oct |= 1 << 0
		}
		if f&^blk[1] == 0 {
			oct |= 1 << 1
		}
		if f&^blk[2] == 0 {
			oct |= 1 << 2
		}
		if f&^blk[3] == 0 {
			oct |= 1 << 3
		}
		if f&^blk[4] == 0 {
			oct |= 1 << 4
		}
		if f&^blk[5] == 0 {
			oct |= 1 << 5
		}
		if f&^blk[6] == 0 {
			oct |= 1 << 6
		}
		if f&^blk[7] == 0 {
			oct |= 1 << 7
		}
		// j is a multiple of 8, so the octet never straddles a word.
		if oct != 0 {
			out[j>>6] |= oct << uint(j&63)
		}
	}
	for ; j < rows; j++ {
		if f&^bits[j] == 0 {
			out[j>>6] |= 1 << uint(j&63)
		}
	}
}

// matchMultiWord handles fabrics wider than 64 columns: eight CM rows
// per outer iteration, one accumulator each, all eight fed from a single
// bounds-checked window over the row words so the inner loop is
// bounds-check-free. An accumulator ends zero iff its row contains the FM
// row.
//
//xbar:hotpath
func matchMultiWord(fm Row, bits []uint64, out Row, rows, w int) {
	j := 0
	for ; j+7 < rows; j += 8 {
		base := j * w
		blk := bits[base : base+8*w : base+8*w]
		var m0, m1, m2, m3, m4, m5, m6, m7 uint64
		for k, f := range fm {
			m0 |= f &^ blk[k]
			m1 |= f &^ blk[w+k]
			m2 |= f &^ blk[2*w+k]
			m3 |= f &^ blk[3*w+k]
			m4 |= f &^ blk[4*w+k]
			m5 |= f &^ blk[5*w+k]
			m6 |= f &^ blk[6*w+k]
			m7 |= f &^ blk[7*w+k]
		}
		var oct uint64
		if m0 == 0 {
			oct |= 1 << 0
		}
		if m1 == 0 {
			oct |= 1 << 1
		}
		if m2 == 0 {
			oct |= 1 << 2
		}
		if m3 == 0 {
			oct |= 1 << 3
		}
		if m4 == 0 {
			oct |= 1 << 4
		}
		if m5 == 0 {
			oct |= 1 << 5
		}
		if m6 == 0 {
			oct |= 1 << 6
		}
		if m7 == 0 {
			oct |= 1 << 7
		}
		if oct != 0 {
			out[j>>6] |= oct << uint(j&63)
		}
	}
	for ; j < rows; j++ {
		r := bits[j*w : (j+1)*w][:w]
		var m uint64
		for k, f := range fm {
			m |= f &^ r[k]
		}
		if m == 0 {
			out[j>>6] |= 1 << uint(j&63)
		}
	}
}

// matchRowAgainstScalar is the one-row-at-a-time reference the batch kernels
// are property-tested and benchmarked against.
//
//xbar:hotpath
func matchRowAgainstScalar(fm Row, cm *Matrix, out Row) {
	for i := range out {
		out[i] = 0
	}
	for j := 0; j < cm.Rows; j++ {
		if SubsetOf(fm, cm.Row(j)) {
			out.Set(j)
		}
	}
}
