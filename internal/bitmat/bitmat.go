// Package bitmat provides word-packed boolean rows and matrices, the shared
// bit-matrix representation of the mapping stack. A Row packs 64 columns per
// uint64 word, so the paper's row-compatibility test — "every required-active
// device falls on a functional switch" — becomes a handful of AND-NOT word
// operations instead of a per-column scan.
//
// The packed-row contract: bit c of word c/64 (bit position c%64) represents
// column c; bits at positions >= Cols in the last word are always zero.
// Every operation below preserves that invariant, which is what lets Equal,
// PopCount, and the subset test work word-at-a-time without masking.
package bitmat

import "math/bits"

// wordBits is the packing width of one Row word.
const wordBits = 64

// Row is one word-packed boolean row: bit c of word c/64 is column c.
type Row []uint64

// Words returns the word count needed to pack cols columns.
//
//xbar:hotpath
func Words(cols int) int { return (cols + wordBits - 1) / wordBits }

// NewRow returns an all-zero packed row with capacity for cols columns.
func NewRow(cols int) Row { return make(Row, Words(cols)) }

// Get reports whether column c is set.
//
//xbar:hotpath
func (r Row) Get(c int) bool { return r[c/wordBits]&(1<<uint(c%wordBits)) != 0 }

// Set sets column c.
//
//xbar:hotpath
func (r Row) Set(c int) { r[c/wordBits] |= 1 << uint(c%wordBits) }

// Clear clears column c.
//
//xbar:hotpath
func (r Row) Clear(c int) { r[c/wordBits] &^= 1 << uint(c%wordBits) }

// Zero clears every column in place.
//
//xbar:hotpath
func (r Row) Zero() {
	for i := range r {
		r[i] = 0
	}
}

// Or folds b into r in place (r |= b). The rows must have equal length.
//
//xbar:hotpath
func (r Row) Or(b Row) {
	for i, w := range b {
		r[i] |= w
	}
}

// AndNot clears from r every column set in b (r &^= b). The rows must have
// equal length.
//
//xbar:hotpath
func (r Row) AndNot(b Row) {
	for i, w := range b {
		r[i] &^= w
	}
}

// Fill sets columns [0, n) and clears the rest (n may end anywhere inside
// the row; bits at positions >= n stay zero per the packed-row contract).
//
//xbar:hotpath
func (r Row) Fill(n int) {
	w := n / wordBits
	for i := 0; i < w; i++ {
		r[i] = ^uint64(0)
	}
	if w < len(r) {
		if rem := n % wordBits; rem != 0 {
			r[w] = (uint64(1) << uint(rem)) - 1
		} else {
			r[w] = 0
		}
		for i := w + 1; i < len(r); i++ {
			r[i] = 0
		}
	}
}

// Any reports whether any column is set.
//
//xbar:hotpath
func (r Row) Any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// PopCount counts the set columns of r.
//
//xbar:hotpath
func PopCount(r Row) int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether a and b have identical columns. The rows must have
// equal length.
//
//xbar:hotpath
func Equal(a, b Row) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// AndNotAny reports whether a &^ b has any set bit, i.e. whether a has a
// column that b lacks. The rows must have equal length.
//
//xbar:hotpath
func AndNotAny(a, b Row) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every set column of a is also set in b
// (a &^ b == 0), the packed form of the paper's row-matching rule.
//
//xbar:hotpath
func SubsetOf(a, b Row) bool { return !AndNotAny(a, b) }

// FirstAnd returns the lowest column index set in both a and b, or -1 when
// the intersection is empty. The rows must have equal length.
//
//xbar:hotpath
func FirstAnd(a, b Row) int {
	for i, w := range a {
		if and := w & b[i]; and != 0 {
			return i*wordBits + bits.TrailingZeros64(and)
		}
	}
	return -1
}

// NextSet returns the lowest set column >= from, or -1 when none remains —
// the ascending-order iterator of the candidate-bitset enumeration loops.
//
//xbar:hotpath
func (r Row) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	i := from / wordBits
	if i >= len(r) {
		return -1
	}
	if w := r[i] >> uint(from%wordBits); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(r); i++ {
		if r[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(r[i])
		}
	}
	return -1
}

// NextAndNot returns the lowest column >= from set in a but not in b, or -1.
// The rows must have equal length.
//
//xbar:hotpath
func NextAndNot(a, b Row, from int) int {
	if from < 0 {
		from = 0
	}
	i := from / wordBits
	if i >= len(a) {
		return -1
	}
	if w := (a[i] &^ b[i]) >> uint(from%wordBits); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(a); i++ {
		if w := a[i] &^ b[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Matrix is a word-packed boolean matrix stored row-major in one backing
// slice, so Row views alias contiguous memory and a whole matrix is a single
// allocation.
type Matrix struct {
	Rows, Cols int
	words      int
	bits       []uint64
}

// New returns an all-zero rows × cols packed matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimensions")
	}
	w := Words(cols)
	return &Matrix{Rows: rows, Cols: cols, words: w, bits: make([]uint64, rows*w)}
}

// Row returns the packed view of row r; mutations write through.
//
//xbar:hotpath
func (m *Matrix) Row(r int) Row { return m.bits[r*m.words : (r+1)*m.words] }

// Reshape resizes m in place to an all-zero rows × cols matrix, reusing the
// backing storage when it is large enough (the scratch-reuse primitive of
// TransposeInto and the candidate-bitset buffers).
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimensions")
	}
	w := Words(cols)
	n := rows * w
	if cap(m.bits) < n {
		m.bits = make([]uint64, n)
	}
	m.bits = m.bits[:n]
	m.Rows, m.Cols, m.words = rows, cols, w
	for i := range m.bits {
		m.bits[i] = 0
	}
}

// Get reports whether cell (r, c) is set.
//
//xbar:hotpath
func (m *Matrix) Get(r, c int) bool { return m.Row(r).Get(c) }

// Set sets cell (r, c).
//
//xbar:hotpath
func (m *Matrix) Set(r, c int) { m.Row(r).Set(c) }

// Clear clears cell (r, c).
//
//xbar:hotpath
func (m *Matrix) Clear(r, c int) { m.Row(r).Clear(c) }

// Fill sets every in-range cell, keeping the trailing bits of each row's
// last word zero (the packed-row contract).
//
//xbar:hotpath
func (m *Matrix) Fill() {
	if m.words == 0 {
		return
	}
	var last uint64
	if rem := m.Cols % wordBits; rem == 0 {
		last = ^uint64(0)
	} else {
		last = (uint64(1) << uint(rem)) - 1
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = ^uint64(0)
		}
		row[m.words-1] = last
	}
}
