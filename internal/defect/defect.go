// Package defect models fabrication defects of memristive crossbars in the
// paper's stuck-at paradigm: stuck-at-open devices are frozen at R_OFF
// (usable wherever the design wants a disabled device) and stuck-at-closed
// devices are frozen at R_ON (they force their NAND line to a constant and
// poison their column, making both lines unusable on an optimum-size array).
package defect

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/lfg"
)

// Kind is the defect state of one crosspoint.
type Kind uint8

const (
	// OK is a functional, programmable device.
	OK Kind = iota
	// StuckOpen is frozen at R_OFF (logic 1 in the Snider model).
	StuckOpen
	// StuckClosed is frozen at R_ON (logic 0 in the Snider model).
	StuckClosed
)

// String names the defect kind.
func (k Kind) String() string {
	switch k {
	case OK:
		return "ok"
	case StuckOpen:
		return "stuck-open"
	case StuckClosed:
		return "stuck-closed"
	}
	return "unknown"
}

// Map is the defect map of one fabricated crossbar, the Crossbar Matrix (CM)
// of the paper's Fig. 8(b). It is stored as two word-packed planes under the
// packed-row contract of internal/bitmat — the functional plane (the CM) and
// the stuck-closed plane; a cell in neither is stuck open — plus per-line
// stuck-closed caches. Every mutation goes through Set or Regenerate, which
// keep the caches current, so RowHasClosed / ColHasClosed are O(1) and the
// mapping hot path tests row compatibility with word operations.
type Map struct {
	Rows, Cols int

	// functional packs Functional(r, c) row-major: bit c of row r is 1 when
	// the device is programmable (the CM of Fig. 8(b)). closed packs the
	// stuck-closed devices the same way; the planes never share a set bit.
	functional bitmat.Matrix
	closed     bitmat.Matrix
	// closedRow / closedCol count stuck-closed devices per line; the masks
	// flag lines whose count is non-zero.
	closedRow     []int32
	closedCol     []int32
	closedRowMask bitmat.Row
	closedColMask bitmat.Row

	// cut holds the thresholds of the last Params Regenerate sampled with
	// (the zero cut is Params{}'s).
	cut cut
}

// NewMap returns an all-functional defect map.
func NewMap(rows, cols int) *Map {
	if rows < 0 || cols < 0 {
		panic("defect: negative dimensions")
	}
	// The two closed-line masks share one backing slice, and so do the two
	// per-line counters.
	rw := bitmat.Words(rows)
	masks := make([]uint64, rw+bitmat.Words(cols))
	counts := make([]int32, rows+cols)
	m := &Map{
		Rows:          rows,
		Cols:          cols,
		closedRow:     counts[:rows:rows],
		closedCol:     counts[rows:],
		closedRowMask: masks[:rw:rw],
		closedColMask: masks[rw:],
	}
	m.functional.Reshape(rows, cols)
	m.closed.Reshape(rows, cols)
	m.functional.Fill()
	return m
}

// Params controls random defect injection.
type Params struct {
	// POpen is the independent per-crosspoint probability of a stuck-at-open
	// defect (the paper's experiments use 0.10).
	POpen float64
	// PClosed is the independent probability of a stuck-at-closed defect.
	// The paper's Table II experiments set it to zero because closed defects
	// cannot be tolerated without redundant lines.
	PClosed float64
}

func (p Params) validate(src Source) error {
	// Written so that NaN fails every comparison and ±Inf fails one: a NaN
	// rate would otherwise slip past p < 0 and sum > 1 alike.
	if !(p.POpen >= 0 && p.PClosed >= 0 && p.POpen+p.PClosed <= 1) {
		return fmt.Errorf("defect: invalid probabilities POpen=%v PClosed=%v", p.POpen, p.PClosed)
	}
	if src == nil {
		return fmt.Errorf("defect: nil random source")
	}
	return nil
}

// Source is the random stream a map is sampled from. *lfg.Source, the Monte
// Carlo harness's stream, is drawn a row per call through its fused
// draw-and-compare kernel (lfg.Source.Below); any other Source, such as a
// *rand.Rand, is drawn value by value. Both give the same map for the same
// stream.
type Source interface {
	Int63() int64
}

// Generate samples a defect map with independent uniform per-crosspoint
// defect probabilities, the paper's Monte Carlo defect model.
func Generate(rows, cols int, p Params, src Source) (*Map, error) {
	m := NewMap(rows, cols)
	if err := m.Regenerate(p, src); err != nil {
		return nil, err
	}
	return m, nil
}

// Regenerate resamples the whole map in place without allocating: the
// scratch-buffer primitive of the Monte Carlo yield loops, one preallocated
// map per worker refilled per trial. Generate is NewMap plus Regenerate.
//
// The sampling is the per-cell model u := Float64(); open if u < POpen,
// closed if u < POpen+PClosed, evaluated word by word: each draw is
// compared with the integer thresholds of p (see cut) as it is drawn, into
// one word per 64 cells of the draws below each threshold, and the row's
// words are derived from those two. It consumes the stream exactly as the
// per-cell loop does, one Int63 per crosspoint in row-major order plus one
// for every value Float64 would redraw, so the map is the one that loop
// builds from the same stream.
//
//xbar:hotpath
func (m *Map) Regenerate(p Params, src Source) error {
	//xbar:allow hotpath-alloc parameter validation is the cold error path and allocates only when it rejects
	if err := p.validate(src); err != nil {
		return err
	}
	if m.cut.p != p {
		m.cut = cutFor(p)
	}
	fast, _ := src.(*lfg.Source)
	for i := range m.closedCol {
		m.closedCol[i] = 0
	}
	m.closedColMask.Zero()
	// ^defective sets the bits past Cols in a row's last word; last clears
	// them again (the packed-row contract).
	last := ^uint64(0) >> (uint(-m.Cols) % 64)
	for r := 0; r < m.Rows; r++ {
		// The closed row first takes the cells below the open threshold
		// and the functional row those below the defect threshold.
		fRow, cRow := m.functional.Row(r), m.closed.Row(r)
		if fast != nil {
			fast.Below(cRow, fRow, m.Cols, m.cut.open, m.cut.defect)
		} else {
			m.cut.below(cRow, fRow, m.Cols, src)
		}
		var rowClosed int32
		for w, defective := range fRow {
			// Open cells are defective too (open <= defect), so the stuck-
			// closed ones are the defective cells that are not open.
			c := defective &^ cRow[w]
			fRow[w], cRow[w] = ^defective, c
			if c != 0 {
				m.closedColMask[w] |= c
				rowClosed += int32(bits.OnesCount64(c))
				for lo := w * 64; c != 0; c &= c - 1 {
					m.closedCol[lo+bits.TrailingZeros64(c)]++
				}
			}
		}
		if len(fRow) > 0 {
			fRow[len(fRow)-1] &= last
		}
		m.closedRow[r] = rowClosed
		if rowClosed != 0 {
			m.closedRowMask.Set(r)
		} else {
			m.closedRowMask.Clear(r)
		}
	}
	return nil
}

// redrawFrom is the smallest Int63 value Float64 draws again.
const redrawFrom = lfg.RedrawFrom

// cut holds the integer form of one Params. Float64 is float64(x)/2⁶³ for
// x = Int63(), and the conversion is monotone, so u < POpen is x < open and
// u < POpen+PClosed (the float sum) is x < defect.
type cut struct {
	p            Params
	open, defect int64
}

// cutFor derives the thresholds of p, once per Params change.
//
//xbar:hotpath
func cutFor(p Params) cut {
	return cut{p: p, open: threshold(p.POpen), defect: threshold(p.POpen + p.PClosed)}
}

// threshold returns the smallest x in [0, redrawFrom] with float64(x)/2⁶³
// >= p, so that float64(x)/2⁶³ < p exactly when x < threshold(p) among the
// values Float64 keeps. p = 1 gives redrawFrom: every kept value is below.
//
//xbar:hotpath
func threshold(p float64) int64 {
	lo, hi := int64(0), int64(redrawFrom)
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

// below is lfg.Source.Below for any Source, one Int63 per call: bit k%64 of
// open[k/64] is set when cell k's draw is below t.open, and of
// defective[k/64] when it is below t.defect. A draw Float64 would redraw is
// dropped and the next one takes its place.
//
//xbar:hotpath
func (t cut) below(open, defective []uint64, n int, src Source) {
	for w := range defective {
		var o, d uint64
		for k := range min(n-64*w, 64) {
			//xbar:allow hotpath-alloc interface call to the source's Int63 (*rand.Rand or a test's script), which does not allocate
			x := src.Int63()
			for x >= redrawFrom {
				//xbar:allow hotpath-alloc interface call to the source's Int63, as above
				x = src.Int63()
			}
			o |= uint64(x-t.open) >> 63 << k
			d |= uint64(x-t.defect) >> 63 << k
		}
		open[w], defective[w] = o, d
	}
}

// At returns the defect kind at (r, c).
//
//xbar:hotpath
func (m *Map) At(r, c int) Kind {
	switch {
	case m.functional.Get(r, c):
		return OK
	case m.closed.Get(r, c):
		return StuckClosed
	}
	return StuckOpen
}

// Set stores a defect kind at (r, c), updating the planes and the per-line
// caches incrementally (O(1)); used by tests and fault injection.
//
//xbar:hotpath
func (m *Map) Set(r, c int, k Kind) {
	if k > StuckClosed {
		panic("defect: invalid kind")
	}
	old := m.At(r, c)
	if old == k {
		return
	}
	switch old {
	case OK:
		m.functional.Clear(r, c)
	case StuckClosed:
		m.closed.Clear(r, c)
		if m.closedRow[r]--; m.closedRow[r] == 0 {
			m.closedRowMask.Clear(r)
		}
		if m.closedCol[c]--; m.closedCol[c] == 0 {
			m.closedColMask.Clear(c)
		}
	}
	switch k {
	case OK:
		m.functional.Set(r, c)
	case StuckClosed:
		m.closed.Set(r, c)
		if m.closedRow[r]++; m.closedRow[r] == 1 {
			m.closedRowMask.Set(r)
		}
		if m.closedCol[c]++; m.closedCol[c] == 1 {
			m.closedColMask.Set(c)
		}
	}
}

// Functional reports whether the device at (r, c) is programmable.
//
//xbar:hotpath
func (m *Map) Functional(r, c int) bool { return m.At(r, c) == OK }

// FunctionalRow returns the packed functional mask of physical row r (bit c
// set = programmable device). The view aliases the map's storage: callers
// must treat it as read-only, and it is invalidated by Set/Regenerate.
//
//xbar:hotpath
func (m *Map) FunctionalRow(r int) bitmat.Row { return m.functional.Row(r) }

// ClosedCols returns the packed mask of columns containing at least one
// stuck-at-closed device (read-only view, invalidated by Set/Regenerate).
//
//xbar:hotpath
func (m *Map) ClosedCols() bitmat.Row { return m.closedColMask }

// ClosedRows returns the packed mask of rows containing at least one
// stuck-at-closed device (read-only view, invalidated by Set/Regenerate).
// ANDing its complement into a candidate bitset excludes every poisoned
// physical row in one word pass.
//
//xbar:hotpath
func (m *Map) ClosedRows() bitmat.Row { return m.closedRowMask }

// FunctionalMatrix returns the packed functional mask of the whole map, the
// CM the batched row-matching kernel scans. Read-only view, invalidated by
// Set/Regenerate.
//
//xbar:hotpath
func (m *Map) FunctionalMatrix() *bitmat.Matrix { return &m.functional }

// ClosedInColumn returns the stuck-at-closed device count of column c (O(1)
// via the incremental cache).
//
//xbar:hotpath
func (m *Map) ClosedInColumn(c int) int { return int(m.closedCol[c]) }

// RowHasClosed reports whether row r contains a stuck-at-closed device, in
// which case the paper's model renders the whole horizontal line unusable
// (the NAND output is forced to logic 1). O(1) via the incremental cache.
//
//xbar:hotpath
func (m *Map) RowHasClosed(r int) bool { return m.closedRow[r] > 0 }

// ColHasClosed reports whether column c contains a stuck-at-closed device,
// which renders the vertical line unusable (it cannot be initialized to
// R_OFF). O(1) via the incremental cache.
//
//xbar:hotpath
func (m *Map) ColHasClosed(c int) bool { return m.closedCol[c] > 0 }

// String renders the map: '.' functional, 'o' stuck-open, 'x' stuck-closed.
func (m *Map) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			switch m.At(r, c) {
			case OK:
				b.WriteByte('.')
			case StuckOpen:
				b.WriteByte('o')
			case StuckClosed:
				b.WriteByte('x')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
