// Package xbar models the memristive crossbar fabric of the paper: the
// physical array geometry, the placement of a two-level (NAND–AND plane) or
// multi-level (NAND network with connection columns) design onto it, and a
// functional simulator for the controller state machine in the Snider
// Boolean logic model (R_ON = logic 0, R_OFF = logic 1).
package xbar

import (
	"fmt"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// RowKind classifies a horizontal line of a layout.
type RowKind uint8

const (
	// RowProduct computes the NAND of its connected literal columns
	// (a minterm line of the two-level design).
	RowProduct RowKind = iota
	// RowGate computes one NAND gate of a multi-level design.
	RowGate
	// RowOutput is the inversion line of one output: it reads the output
	// column pair and produces the complementary value.
	RowOutput
)

// ColKind classifies a vertical line of a layout.
type ColKind uint8

const (
	// ColInputPos carries primary input x_i.
	ColInputPos ColKind = iota
	// ColInputNeg carries the complemented input x̄_i.
	ColInputNeg
	// ColWire is a multi-level connection column carrying one gate output.
	ColWire
	// ColFBar carries the AND-plane result f̄_j (two-level) or the
	// complemented output (multi-level inversion result).
	ColFBar
	// ColF carries output f_j.
	ColF
)

// Layout is a logical design placed on crossbar coordinates: which devices
// must be programmed active, plus the metadata needed to simulate it. Row
// order is the canonical function-matrix order (products/gates first, then
// output lines); the defect-tolerant mapper permutes rows onto a physical
// array.
type Layout struct {
	NumIn  int
	NumOut int
	Rows   int
	Cols   int

	RowKinds []RowKind
	ColKinds []ColKind
	// ColIndex gives the input, wire, or output index a column refers to.
	ColIndex []int
	// Active[r][c] reports whether the device at (r,c) must be programmed
	// active; inactive positions must be programmable to disabled (R_OFF).
	Active [][]bool

	// GateOrder lists gate/product rows in evaluation order. For two-level
	// layouts the order is immaterial (all minterms evaluate in one EVM
	// step); for multi-level layouts it is the sequential schedule.
	GateOrder []int
	// WireDriver maps each wire index to the row that drives it (-1 none).
	WireDriver []int
	// OutputDriver maps each output to the product/gate rows feeding its
	// f̄ column (two-level) or the single gate row driving its f column
	// (multi-level).
	OutputDriver [][]int
	// MultiLevel marks the layout style.
	MultiLevel bool

	// packed mirrors Active under the packed-row contract of
	// internal/bitmat; usedCols flags columns with at least one active
	// device. Both are built once by pack() at the end of construction and
	// never mutated afterwards, so concurrent readers (the engine shares one
	// layout across jobs) need no synchronization.
	packed   *bitmat.Matrix
	usedCols bitmat.Row
	// productRows / outputRows cache the row-kind partitions so the mapping
	// hot path doesn't rebuild them per attempt.
	productRows, outputRows []int
}

// pack builds the word-packed mirror of Active and the derived caches.
// Constructors call it last; layouts must not be mutated after construction.
func (l *Layout) pack() {
	l.packed = bitmat.New(l.Rows, l.Cols)
	l.usedCols = bitmat.NewRow(l.Cols)
	for r, row := range l.Active {
		for c, a := range row {
			if a {
				l.packed.Set(r, c)
				l.usedCols.Set(c)
			}
		}
	}
	for r, k := range l.RowKinds {
		if k == RowOutput {
			l.outputRows = append(l.outputRows, r)
		} else {
			l.productRows = append(l.productRows, r)
		}
	}
}

// ActiveRow returns the packed required-active mask of layout row r (the FM
// row of Fig. 8(a)). Read-only view: callers must not mutate it.
//
//xbar:hotpath
func (l *Layout) ActiveRow(r int) bitmat.Row { return l.packed.Row(r) }

// ActiveMatrix returns the packed function matrix (FM) whose row r is
// ActiveRow(r). Read-only view: callers must not mutate it.
//
//xbar:hotpath
func (l *Layout) ActiveMatrix() *bitmat.Matrix { return l.packed }

// UsedColumns returns the packed mask of columns the layout actually uses
// (read-only view).
func (l *Layout) UsedColumns() bitmat.Row { return l.usedCols }

// PackedWords returns the packed active matrix's backing words row by row,
// the canonical serialization the engine hashes job specs from.
func (l *Layout) PackedWords(fn func(row bitmat.Row)) {
	for r := 0; r < l.Rows; r++ {
		fn(l.packed.Row(r))
	}
}

// colPos computes the canonical column layout
// [x_0..x_{I-1}, x̄_0..x̄_{I-1}, wires..., f̄_0..f̄_{O-1}, f_0..f_{O-1}].
func buildColumns(nIn, nWires, nOut int) ([]ColKind, []int) {
	kinds := make([]ColKind, 0, 2*nIn+nWires+2*nOut)
	index := make([]int, 0, cap(kinds))
	for i := 0; i < nIn; i++ {
		kinds = append(kinds, ColInputPos)
		index = append(index, i)
	}
	for i := 0; i < nIn; i++ {
		kinds = append(kinds, ColInputNeg)
		index = append(index, i)
	}
	for w := 0; w < nWires; w++ {
		kinds = append(kinds, ColWire)
		index = append(index, w)
	}
	for j := 0; j < nOut; j++ {
		kinds = append(kinds, ColFBar)
		index = append(index, j)
	}
	for j := 0; j < nOut; j++ {
		kinds = append(kinds, ColF)
		index = append(index, j)
	}
	return kinds, index
}

// NewTwoLevel places a sum-of-products cover on the two-level NAND–AND
// crossbar of Fig. 3: one product line per cube connecting its literal
// columns and the f̄ column of every output containing it, plus one
// inversion line per output.
func NewTwoLevel(c *logic.Cover) (*Layout, error) {
	if c.NumIn == 0 {
		return nil, fmt.Errorf("xbar: cover has no inputs")
	}
	nP := c.NumProducts()
	l := &Layout{
		NumIn:      c.NumIn,
		NumOut:     c.NumOut,
		Rows:       nP + c.NumOut,
		MultiLevel: false,
	}
	l.ColKinds, l.ColIndex = buildColumns(c.NumIn, 0, c.NumOut)
	l.Cols = len(l.ColKinds)
	l.Active = makeGrid(l.Rows, l.Cols)
	l.RowKinds = make([]RowKind, l.Rows)
	l.OutputDriver = make([][]int, c.NumOut)

	fbarCol := func(j int) int { return 2*c.NumIn + j }
	fCol := func(j int) int { return 2*c.NumIn + c.NumOut + j }

	for r, cube := range c.Cubes {
		l.RowKinds[r] = RowProduct
		l.GateOrder = append(l.GateOrder, r)
		for i, v := range cube.In {
			switch v {
			case logic.LitPos:
				l.Active[r][i] = true
			case logic.LitNeg:
				l.Active[r][c.NumIn+i] = true
			}
		}
		for j, b := range cube.Out {
			if b {
				l.Active[r][fbarCol(j)] = true
				l.OutputDriver[j] = append(l.OutputDriver[j], r)
			}
		}
	}
	for j := 0; j < c.NumOut; j++ {
		r := nP + j
		l.RowKinds[r] = RowOutput
		l.Active[r][fbarCol(j)] = true
		l.Active[r][fCol(j)] = true
	}
	l.pack()
	return l, nil
}

// NewMultiLevel places a NAND network on the multi-level crossbar of
// Fig. 5: one gate line per NAND in topological order, one connection
// column per gate that feeds other gates, one inversion line per output.
func NewMultiLevel(nw *netlist.Network) (*Layout, error) {
	if nw.NumIn == 0 {
		return nil, fmt.Errorf("xbar: network has no inputs")
	}
	if len(nw.Outputs) == 0 {
		return nil, fmt.Errorf("xbar: network has no outputs")
	}
	// Assign a wire index to every gate consumed by another gate.
	wireOf := make(map[int]int)
	for _, g := range nw.Gates {
		for _, s := range g.Fanins {
			if s.Kind == netlist.GateOut {
				if _, ok := wireOf[s.Index]; !ok {
					wireOf[s.Index] = len(wireOf)
				}
			}
		}
	}
	nG, nW, nOut := nw.NumGates(), len(wireOf), len(nw.Outputs)
	l := &Layout{
		NumIn:      nw.NumIn,
		NumOut:     nOut,
		Rows:       nG + nOut,
		MultiLevel: true,
	}
	l.ColKinds, l.ColIndex = buildColumns(nw.NumIn, nW, nOut)
	l.Cols = len(l.ColKinds)
	l.Active = makeGrid(l.Rows, l.Cols)
	l.RowKinds = make([]RowKind, l.Rows)
	l.WireDriver = make([]int, nW)
	for i := range l.WireDriver {
		l.WireDriver[i] = -1
	}
	l.OutputDriver = make([][]int, nOut)

	wireCol := func(w int) int { return 2*nw.NumIn + w }
	fbarCol := func(j int) int { return 2*nw.NumIn + nW + j }
	fCol := func(j int) int { return 2*nw.NumIn + nW + nOut + j }

	for gi, g := range nw.Gates {
		r := gi // gates stored in topological order
		l.RowKinds[r] = RowGate
		l.GateOrder = append(l.GateOrder, r)
		for _, s := range g.Fanins {
			switch s.Kind {
			case netlist.InputPos:
				l.Active[r][s.Index] = true
			case netlist.InputNeg:
				l.Active[r][nw.NumIn+s.Index] = true
			case netlist.GateOut:
				l.Active[r][wireCol(wireOf[s.Index])] = true
			}
		}
		if w, ok := wireOf[gi]; ok {
			l.Active[r][wireCol(w)] = true
			l.WireDriver[w] = r
		}
	}
	for j, s := range nw.Outputs {
		r := nG + j
		l.RowKinds[r] = RowOutput
		l.Active[r][fCol(j)] = true
		l.Active[r][fbarCol(j)] = true
		// The driving gate writes its value onto the f column.
		l.Active[s.Index][fCol(j)] = true
		l.OutputDriver[j] = []int{s.Index}
	}
	l.pack()
	return l, nil
}

// Area reports rows*cols, the paper's area cost.
func (l *Layout) Area() int { return l.Rows * l.Cols }

// Devices counts required-active devices.
func (l *Layout) Devices() int {
	n := 0
	for r := 0; r < l.Rows; r++ {
		n += bitmat.PopCount(l.packed.Row(r))
	}
	return n
}

// InclusionRatio is Devices()/Area(), the paper's IR metric.
func (l *Layout) InclusionRatio() float64 {
	if l.Area() == 0 {
		return 0
	}
	return float64(l.Devices()) / float64(l.Area())
}

// FunctionMatrix returns a copy of the required-active matrix, the FM of
// the paper's Fig. 8(a).
func (l *Layout) FunctionMatrix() [][]bool {
	fm := makeGrid(l.Rows, l.Cols)
	for r := range l.Active {
		copy(fm[r], l.Active[r])
	}
	return fm
}

// ProductRows lists the indices of product/gate rows (FMm in the paper);
// OutputRows lists inversion rows (FMo). Both return cached slices built at
// construction time — callers must not mutate them.
//
//xbar:hotpath
func (l *Layout) ProductRows() []int { return l.productRows }

// OutputRows lists the inversion rows of the layout.
//
//xbar:hotpath
func (l *Layout) OutputRows() []int { return l.outputRows }

// Render draws the layout as ASCII art: '#' for an active device, '.' for a
// disabled one, with column kind markers. Intended for examples and docs.
func (l *Layout) Render() string {
	var b strings.Builder
	b.WriteString("    ")
	for _, k := range l.ColKinds {
		switch k {
		case ColInputPos:
			b.WriteByte('x')
		case ColInputNeg:
			b.WriteByte('n')
		case ColWire:
			b.WriteByte('w')
		case ColFBar:
			b.WriteByte('b')
		case ColF:
			b.WriteByte('f')
		}
	}
	b.WriteByte('\n')
	for r := 0; r < l.Rows; r++ {
		switch l.RowKinds[r] {
		case RowProduct:
			b.WriteString("P   ")
		case RowGate:
			b.WriteString("G   ")
		case RowOutput:
			b.WriteString("O   ")
		}
		for c := 0; c < l.Cols; c++ {
			if l.Active[r][c] {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func makeGrid(rows, cols int) [][]bool {
	g := make([][]bool, rows)
	cells := make([]bool, rows*cols)
	for r := range g {
		g[r], cells = cells[:cols], cells[cols:]
	}
	return g
}
