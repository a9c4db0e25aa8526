package mapping

import (
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/defect"
	"repro/internal/lfg"
	"repro/internal/xbar"
)

// Column-aware mapping: the extension that makes stuck-at-closed defects
// tolerable. Section IV-A of the paper shows a closed device poisons its
// whole vertical line, so on an optimum-size crossbar with fixed wiring no
// row permutation can save a used column. But the fabric's columns are
// interchangeable within their roles — any physical (x, x̄) column pair can
// carry any logical input, wire columns can carry any connection, output
// pairs any output — so with redundant column pairs the mapper can route
// logic away from poisoned lines. This file implements that joint
// column-assignment + row-assignment search.
//
// The search is a retry loop — greedy column ranking, then random restarts —
// and every Monte Carlo trial of the stuck-closed tolerance study runs it
// afresh, so the loop is built the same way as the row algorithms: all
// working storage lives in a ColumnScratch, the per-column penalty scans run
// as popcounts over the word-transposed functional view, and the projected
// defect map is rebuilt in place per attempt. In steady state a retry loop
// on a reused scratch performs zero heap allocations.

// FabricSpec describes the physical column resources of a crossbar. The
// physical column order is [x_0..x_{P-1}, x̄_0..x̄_{P-1}, wires,
// f̄-pairs..., f-pairs...], mirroring the layout convention.
type FabricSpec struct {
	InputPairs  int // physical (x, x̄) column pairs
	Wires       int // physical multi-level connection columns
	OutputPairs int // physical (f̄, f) column pairs
}

// Cols is the total physical column count.
func (s FabricSpec) Cols() int { return 2*s.InputPairs + s.Wires + 2*s.OutputPairs }

// SpecFor returns the minimum fabric spec for a layout (no spare columns).
func SpecFor(l *xbar.Layout) FabricSpec {
	wires := 0
	for _, k := range l.ColKinds {
		if k == xbar.ColWire {
			wires++
		}
	}
	return FabricSpec{InputPairs: l.NumIn, Wires: wires, OutputPairs: l.NumOut}
}

// ColumnAssignment maps the layout's logical column resources onto physical
// ones: logical input i uses physical pair InputPair[i], and so on. All
// three maps are injective.
type ColumnAssignment struct {
	InputPair  []int
	Wire       []int
	OutputPair []int
}

// ColumnOptions tunes the column-aware search.
type ColumnOptions struct {
	// Retries bounds the random-restart swaps after the greedy assignment
	// fails. Zero means 20.
	Retries int
	// Seed drives the retry randomization.
	Seed int64
}

// ColumnResult is the outcome of a column-aware mapping attempt.
type ColumnResult struct {
	Valid   bool
	Columns ColumnAssignment
	Rows    Result
	Reason  string
	// Attempts counts column assignments tried.
	Attempts int
	// Projected is the defect map restricted to the chosen physical
	// columns in layout order; simulate the mapped design against it.
	Projected *defect.Map
}

// ColumnScratch holds the reusable working storage of one column-aware
// mapping worker: the row-mapping Scratch, the projected defect map, the
// transposed functional view the greedy penalty scans run over, the
// assignment and ranking buffers, and the retry rng. One ColumnScratch per
// goroutine makes the stuck-closed tolerance trial loop allocation-free in
// steady state. The zero value is ready; a ColumnScratch must not be shared
// between goroutines.
type ColumnScratch struct {
	rows      Scratch
	problem   Problem
	projected *defect.Map
	// colsView is the column-major (word-transposed) functional view of the
	// fabric defect map: row c is the packed functional bitset of physical
	// column c, so a column's defect count is one popcount.
	colsView *bitmat.Matrix
	assign   ColumnAssignment
	usage    []int
	// physOrder/physKey and logOrder/logKey are the greedy ranking buffers.
	physOrder, physKey []int
	logOrder, logKey   []int
	rng                *rand.Rand
	// prevIn, prevWire and prevOut snapshot the assignment s.projected was
	// last built under within the current call, so a retry re-projects only
	// the columns perturb moved. They are subslices of one prevBuf backing
	// (one allocation, resized per spec).
	prevIn, prevWire, prevOut []int
	prevBuf                   []int
}

// NewColumnScratch returns an empty ColumnScratch (buffers grow on first
// use).
func NewColumnScratch() *ColumnScratch { return &ColumnScratch{} }

// ColumnAware searches for a joint column and row assignment of the layout
// onto a physical fabric with the given defect map. The fabric may have
// spare rows (dm.Rows > layout rows) and spare column pairs (spec larger
// than SpecFor(layout)); spares are what make stuck-closed defects
// survivable.
func ColumnAware(l *xbar.Layout, dm *defect.Map, spec FabricSpec, opt ColumnOptions) (ColumnResult, error) {
	return ColumnAwareScratch(l, dm, spec, opt, nil)
}

// ColumnAwareScratch is ColumnAware with reusable working storage (nil
// behaves like ColumnAware). On success, Columns, Rows.Assignment, and
// Projected alias scratch storage and are only valid until the next call
// with the same ColumnScratch.
func ColumnAwareScratch(l *xbar.Layout, dm *defect.Map, spec FabricSpec, opt ColumnOptions, s *ColumnScratch) (ColumnResult, error) {
	need := SpecFor(l)
	if spec.InputPairs < need.InputPairs || spec.Wires < need.Wires || spec.OutputPairs < need.OutputPairs {
		return ColumnResult{}, fmt.Errorf("mapping: fabric %+v too small for layout needing %+v", spec, need)
	}
	if dm.Cols != spec.Cols() {
		return ColumnResult{}, fmt.Errorf("mapping: defect map has %d columns, fabric spec needs %d", dm.Cols, spec.Cols())
	}
	if dm.Rows < l.Rows {
		return ColumnResult{}, fmt.Errorf("mapping: defect map has %d rows, layout needs %d", dm.Rows, l.Rows)
	}
	if s == nil {
		s = &ColumnScratch{}
	}
	if opt.Retries == 0 {
		opt.Retries = 20
	}

	s.columnUsage(l)
	s.colsView = bitmat.TransposeInto(s.colsView, dm.FunctionalMatrix())
	s.greedyColumns(l, dm, spec)
	if s.rng == nil {
		s.rng = rand.New(lfg.New(opt.Seed))
	} else {
		s.rng.Seed(opt.Seed)
	}
	if s.projected == nil || s.projected.Rows != dm.Rows || s.projected.Cols != l.Cols {
		s.projected = defect.NewMap(dm.Rows, l.Cols)
	}
	p := &s.problem
	p.Layout, p.Defects = l, s.projected

	res := ColumnResult{}
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		res.Attempts++
		s.projectAssigned(dm, spec, l, attempt > 0)
		if ok, _ := p.ColumnFeasible(); ok {
			rows := HBAScratch(p, &s.rows)
			if rows.Valid {
				return ColumnResult{
					Valid:     true,
					Columns:   s.assign,
					Rows:      rows,
					Attempts:  res.Attempts,
					Projected: s.projected,
				}, nil
			}
			res.Reason = rows.Reason
		} else {
			res.Reason = "poisoned column in the chosen set"
		}
		// Perturb: swap a used input pair with another (possibly spare)
		// pair; occasionally reshuffle an output pair too.
		s.perturb(spec)
	}
	res.Valid = false
	return res, nil
}

// columnUsage counts active devices per logical column (demand weight) into
// the scratch buffer.
//
//xbar:hotpath
func (s *ColumnScratch) columnUsage(l *xbar.Layout) {
	usage := growInts(&s.usage, l.Cols)
	for i := range usage {
		usage[i] = 0
	}
	for _, row := range l.Active {
		for c, a := range row {
			if a {
				usage[c]++
			}
		}
	}
}

// columnPenalty ranks one physical column for the greedy assignment: pairs
// containing a stuck-closed device rank last (effectively unusable), then
// by stuck-open defect count. The open count is read off the transposed
// functional view — defective devices of column c are the zero bits of its
// packed row, minus the stuck-closed ones — so the scan is one popcount
// instead of a per-row walk.
//
//xbar:hotpath
func (s *ColumnScratch) columnPenalty(dm *defect.Map, c int) int {
	p := dm.Rows - bitmat.PopCount(s.colsView.Row(c)) - dm.ClosedInColumn(c)
	if dm.ColHasClosed(c) {
		p += 1_000_000
	}
	return p
}

// stableSortByKey sorts order by ascending key (descending when desc),
// preserving the relative order of equal keys. Insertion sort: the slices
// are small (column counts, or the product rows of an HBAWith ordering
// option) and the scratch path must not allocate, which rules out
// sort.SliceStable's closure and reflection machinery.
//
//xbar:hotpath
func stableSortByKey(order, key []int, desc bool) {
	for i := 1; i < len(order); i++ {
		o, k := order[i], key[i]
		j := i
		for j > 0 {
			prev := key[j-1]
			if prev == k || (prev < k) != desc {
				break // equal keys keep their order; sorted pairs stay put
			}
			order[j], key[j] = order[j-1], key[j-1]
			j--
		}
		order[j], key[j] = o, k
	}
}

// greedyColumns assigns the heaviest-demand logical resources to the
// cleanest physical ones, filling s.assign.
//
//xbar:hotpath
func (s *ColumnScratch) greedyColumns(l *xbar.Layout, dm *defect.Map, spec FabricSpec) {
	physPairCols := func(p int) (int, int) { return p, spec.InputPairs + p }
	physWireCol := func(w int) int { return 2*spec.InputPairs + w }
	physOutCols := func(o int) (int, int) {
		base := 2*spec.InputPairs + spec.Wires
		return base + o, base + spec.OutputPairs + o
	}

	nW := 0
	for _, k := range l.ColKinds {
		if k == xbar.ColWire {
			nW++
		}
	}
	s.assign.InputPair = growInts(&s.assign.InputPair, l.NumIn)
	s.assign.Wire = growInts(&s.assign.Wire, nW)
	s.assign.OutputPair = growInts(&s.assign.OutputPair, l.NumOut)

	// rank prepares the scratch order/key buffers: physical resources by
	// ascending penalty, logical resources by descending demand.
	rank := func(order *[]int, key *[]int, n int, desc bool) ([]int, []int) {
		o, k := growInts(order, n), growInts(key, n)
		for i := range o {
			o[i] = i
		}
		return o, k
	}

	// Input pairs.
	physIn, keyIn := rank(&s.physOrder, &s.physKey, spec.InputPairs, false)
	for i := range physIn {
		x, nx := physPairCols(i)
		keyIn[i] = s.columnPenalty(dm, x) + s.columnPenalty(dm, nx)
	}
	stableSortByKey(physIn, keyIn, false)
	logIn, demIn := rank(&s.logOrder, &s.logKey, l.NumIn, true)
	for i := range logIn {
		demIn[i] = s.usage[i] + s.usage[l.NumIn+i]
	}
	stableSortByKey(logIn, demIn, true)
	for k, li := range logIn {
		s.assign.InputPair[li] = physIn[k]
	}

	// Wires.
	physW, keyW := rank(&s.physOrder, &s.physKey, spec.Wires, false)
	for w := range physW {
		keyW[w] = s.columnPenalty(dm, physWireCol(w))
	}
	stableSortByKey(physW, keyW, false)
	logW, demW := rank(&s.logOrder, &s.logKey, nW, true)
	for w := range logW {
		demW[w] = s.usage[2*l.NumIn+w]
	}
	stableSortByKey(logW, demW, true)
	for k, lw := range logW {
		s.assign.Wire[lw] = physW[k]
	}

	// Output pairs.
	physO, keyO := rank(&s.physOrder, &s.physKey, spec.OutputPairs, false)
	for o := range physO {
		fb, f := physOutCols(o)
		keyO[o] = s.columnPenalty(dm, fb) + s.columnPenalty(dm, f)
	}
	stableSortByKey(physO, keyO, false)
	logO, demO := rank(&s.logOrder, &s.logKey, l.NumOut, true)
	base := 2*l.NumIn + nW
	for j := range logO {
		demO[j] = s.usage[base+j] + s.usage[base+l.NumOut+j]
	}
	stableSortByKey(logO, demO, true)
	for k, lj := range logO {
		s.assign.OutputPair[lj] = physO[k]
	}
}

// perturb swaps one assignment entry with a random alternative (used or
// spare) in place, drawing from the scratch rng in the same order as every
// prior revision of this search (the retry schedule is part of the
// reproducibility contract).
//
//xbar:hotpath
func (s *ColumnScratch) perturb(spec FabricSpec) {
	rng := s.rng
	swapInto := func(slice []int, limit int) {
		if len(slice) == 0 || limit == 0 {
			return
		}
		i := rng.Intn(len(slice))
		target := rng.Intn(limit)
		for k, v := range slice {
			if v == target {
				slice[i], slice[k] = slice[k], slice[i]
				return
			}
		}
		slice[i] = target
	}
	switch rng.Intn(3) {
	case 0:
		swapInto(s.assign.InputPair, spec.InputPairs)
	case 1:
		if len(s.assign.Wire) > 0 && spec.Wires > 0 {
			swapInto(s.assign.Wire, spec.Wires)
		} else {
			swapInto(s.assign.InputPair, spec.InputPairs)
		}
	default:
		swapInto(s.assign.OutputPair, spec.OutputPairs)
	}
}

// ProjectDefects extracts the physical columns chosen by the assignment, in
// layout column order, producing the defect map the row mapper (and the
// simulator) sees.
func ProjectDefects(dm *defect.Map, spec FabricSpec, l *xbar.Layout, a ColumnAssignment) *defect.Map {
	out := defect.NewMap(dm.Rows, l.Cols)
	projectDefectsInto(out, dm, spec, l, a)
	return out
}

// ProjectDefectsInto is ProjectDefects into a caller-owned map (the
// scratch-path primitive: one projection per retry attempt, no allocation).
// dst must be dm.Rows × l.Cols; a mismatch panics rather than silently
// projecting into a fresh map the caller's aliases would never see.
func ProjectDefectsInto(dst *defect.Map, dm *defect.Map, spec FabricSpec, l *xbar.Layout, a ColumnAssignment) {
	if dst.Rows != dm.Rows || dst.Cols != l.Cols {
		panic(fmt.Sprintf("mapping: projection target is %dx%d, need %dx%d",
			dst.Rows, dst.Cols, dm.Rows, l.Cols))
	}
	projectDefectsInto(dst, dm, spec, l, a)
}

// projectDefectsInto rebuilds dst (dimensions already correct) as the
// projection of dm onto the assigned columns in layout order. Every
// destination column is rewritten in full via projectColumn, so dst needs
// no clearing first.
//
//xbar:hotpath
func projectDefectsInto(dst *defect.Map, dm *defect.Map, spec FabricSpec, l *xbar.Layout, a ColumnAssignment) {
	for i := 0; i < l.NumIn; i++ {
		projectColumn(dst, i, dm, a.InputPair[i])
		projectColumn(dst, l.NumIn+i, dm, spec.InputPairs+a.InputPair[i])
	}
	for w := 0; w < len(a.Wire); w++ {
		projectColumn(dst, 2*l.NumIn+w, dm, 2*spec.InputPairs+a.Wire[w])
	}
	srcBase := 2*spec.InputPairs + spec.Wires
	dstBase := 2*l.NumIn + len(a.Wire)
	for j := 0; j < l.NumOut; j++ {
		projectColumn(dst, dstBase+j, dm, srcBase+a.OutputPair[j])
		projectColumn(dst, dstBase+l.NumOut+j, dm, srcBase+spec.OutputPairs+a.OutputPair[j])
	}
}

// projectColumn overwrites destination column k with source column src of
// the fabric map, cell by cell through Set so the caches of dst stay exact.
//
//xbar:hotpath
func projectColumn(dst *defect.Map, k int, dm *defect.Map, src int) {
	for r := 0; r < dm.Rows; r++ {
		dst.Set(r, k, dm.At(r, src))
	}
}

// projectAssigned makes s.projected the projection of dm under the current
// s.assign. The first attempt of a call projects every column; a retry
// re-projects only the destination columns whose assignment entry differs
// from the previous attempt's snapshot — the handful perturb touched. A
// call's first attempt never trusts what an earlier call left behind, so
// a caller may mutate either map between calls.
//
//xbar:hotpath
func (s *ColumnScratch) projectAssigned(dm *defect.Map, spec FabricSpec, l *xbar.Layout, retry bool) {
	dst := s.projected
	a := s.assign
	srcBase := 2*spec.InputPairs + spec.Wires
	dstBase := 2*l.NumIn + len(a.Wire)
	for i, pair := range a.InputPair {
		if retry && s.prevIn[i] == pair {
			continue
		}
		projectColumn(dst, i, dm, pair)
		projectColumn(dst, l.NumIn+i, dm, spec.InputPairs+pair)
	}
	for w, wire := range a.Wire {
		if retry && s.prevWire[w] == wire {
			continue
		}
		projectColumn(dst, 2*l.NumIn+w, dm, 2*spec.InputPairs+wire)
	}
	for j, pair := range a.OutputPair {
		if retry && s.prevOut[j] == pair {
			continue
		}
		projectColumn(dst, dstBase+j, dm, srcBase+pair)
		projectColumn(dst, dstBase+l.NumOut+j, dm, srcBase+spec.OutputPairs+pair)
	}
	ni, nw, no := len(a.InputPair), len(a.Wire), len(a.OutputPair)
	if cap(s.prevBuf) < ni+nw+no {
		//xbar:allow hotpath-alloc grow-once snapshot of the assignment vectors; retries reuse it
		s.prevBuf = make([]int, ni+nw+no)
	}
	buf := s.prevBuf[:ni+nw+no]
	s.prevIn = buf[0:ni:ni]
	s.prevWire = buf[ni : ni+nw : ni+nw]
	s.prevOut = buf[ni+nw:]
	copy(s.prevIn, a.InputPair)
	copy(s.prevWire, a.Wire)
	copy(s.prevOut, a.OutputPair)
}
