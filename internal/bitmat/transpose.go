package bitmat

// Column-major views. A Matrix stores rows contiguously, which makes row
// scans (the mapping hot path) one cache line; per-column scans stride
// through memory and test one bit per touched word. TransposeInto builds the
// word-transposed mirror — a Matrix whose row c is column c of the source —
// so per-column work (the column-aware mapper's penalty and feasibility
// scans) becomes whole-word popcounts and masks over contiguous memory.
// The transpose itself runs on 64×64 bit blocks with the classic
// recursive-halving word transpose, never touching individual bits.

// Transpose returns a freshly allocated column-major view of m: a
// src.Cols × src.Rows matrix with Get(c, r) == m.Get(r, c).
func Transpose(m *Matrix) *Matrix {
	return TransposeInto(nil, m)
}

// TransposeInto writes the column-major view of src into dst, growing dst
// only when its backing storage is too small (pass the previous result to
// amortize; nil allocates). It returns the view, whose row c is the packed
// bitset of src's column c over the source rows.
func TransposeInto(dst, src *Matrix) *Matrix {
	if dst == nil {
		dst = &Matrix{}
	}
	dst.Reshape(src.Cols, src.Rows)
	if src.Rows == 0 || src.Cols == 0 {
		return dst
	}
	var blk [64]uint64
	for rb := 0; rb < src.Rows; rb += 64 {
		cw := rb >> 6 // destination word holding source rows rb..rb+63
		nr := src.Rows - rb
		if nr > 64 {
			nr = 64
		}
		for cb := 0; cb < src.Cols; cb += 64 {
			// Gather: source word cb/64 of rows rb..rb+nr-1; the packed-row
			// contract keeps bits past src.Cols zero, and the zero padding
			// below keeps bits past src.Rows zero in the output.
			sw := cb >> 6
			for i := 0; i < nr; i++ {
				blk[i] = src.bits[(rb+i)*src.words+sw]
			}
			for i := nr; i < 64; i++ {
				blk[i] = 0
			}
			transpose64(&blk)
			nc := src.Cols - cb
			if nc > 64 {
				nc = 64
			}
			for c := 0; c < nc; c++ {
				dst.bits[(cb+c)*dst.words+cw] = blk[c]
			}
		}
	}
	return dst
}

// transpose64 transposes a 64×64 bit block in place (bit c of word r moves
// to bit r of word c) by recursive halving: swap the off-diagonal 32×32
// quadrants, then the 16×16 quadrants within each half, and so on down to
// single bits — six rounds of masked shift-and-xor instead of 4096 bit moves.
//
//xbar:hotpath
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			// Swap the top-right quadrant (rows k.., upper j bits) with the
			// bottom-left (rows k+j.., lower j bits); bit c = column c, so the
			// upper halves sit at the high shift positions.
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		m ^= m << (j >> 1)
	}
}
