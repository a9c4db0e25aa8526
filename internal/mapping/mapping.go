// Package mapping implements the defect-tolerant logic mapping algorithms of
// the paper's Section IV-B: the naive (defect-blind) mapper of Fig. 7(a),
// the exact algorithm (EA) that solves the full row-assignment problem, and
// the hybrid algorithm (HBA, Algorithm 1) that places product rows with a
// greedy backtracking heuristic and reserves the exact assignment for the
// critical output rows. The paper solves the assignment with Munkres'
// method; here it is bipartite matching on the candidate bitsets (match.go),
// which finds a complete assignment exactly when a zero-cost Munkres
// assignment exists, so every Psucc is the same while the cost drops from
// O(n³) floating-point steps to word scans. internal/munkres remains as
// the test oracle.
//
// Rows of the function matrix (FM) are matched to rows of the crossbar
// matrix (CM): an FM row fits a CM row when every required-active device
// (FM = 1) falls on a functional switch (CM = 1); stuck-open switches
// (CM = 0) can only host disabled devices (FM = 0). Columns are fixed by
// the fabric wiring, so only rows are permuted.
//
// The compatibility test runs on the word-packed rows of internal/bitmat:
// an FM row fits a CM row iff fmRow &^ cmFunctional == 0, a handful of
// AND-NOT word operations instead of a per-column scan. HBA and EA test a
// pair only when a scan reaches it. Every top-to-bottom scan — HBA's greedy
// placement, its backtracking walk over the occupied rows and the
// matcher's first-fit seed — is the masked first-fit kernel
// (bitmat.FirstSubset) over the usable rows, stopping at the first fit in
// the order of the per-pair scans, so placements are bit-identical to
// them. The matcher's augmenting search fills an FM row's whole candidate
// bitset with the batched kernel (bitmat.MatchRowAgainst) the first time
// it reads that row. The equivalence tests check both kernels and the
// algorithms against the pre-refactor scalar matcher (scalarRowMatches, in
// equivalence_test.go).
package mapping

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/defect"
	"repro/internal/xbar"
)

// Stats counts the work a mapping attempt performed.
type Stats struct {
	// MatchChecks is the number of row-compatibility tests the attempt
	// made: the rows each first-fit scan examined (HBA's scans, the
	// matcher's seed) plus Defects.Rows for every candidate bitset the
	// matcher filled with one pass of bitmat.MatchRowAgainst.
	MatchChecks int
	// Backtracks counts heuristic backtracking events (HBA only).
	Backtracks int
}

// Result is the outcome of a mapping attempt.
type Result struct {
	// Valid reports whether a complete, defect-avoiding row assignment was
	// found.
	Valid bool
	// Assignment maps each layout (FM) row to a physical (CM) row; nil when
	// Valid is false. When the algorithm ran with a non-nil Scratch, the
	// slice aliases scratch storage and is only valid until the next call
	// with the same Scratch.
	Assignment []int
	// Reason explains a failure for diagnostics.
	Reason string
	Stats  Stats
}

// Problem pairs a layout with the defect map of the target crossbar. The
// defect map may have more rows than the layout (redundant spare lines, the
// paper's Section VI future-work direction); it must have exactly the
// layout's column count.
type Problem struct {
	Layout  *xbar.Layout
	Defects *defect.Map
}

// NewProblem validates dimensions. The Problem holds only the two pointers,
// so one Problem can be reused across trials that regenerate the defect map
// in place (defect.Map.Regenerate).
func NewProblem(l *xbar.Layout, dm *defect.Map) (*Problem, error) {
	if dm.Cols != l.Cols {
		return nil, fmt.Errorf("mapping: defect map has %d columns, layout needs %d", dm.Cols, l.Cols)
	}
	if dm.Rows < l.Rows {
		return nil, fmt.Errorf("mapping: defect map has %d rows, layout needs %d", dm.Rows, l.Rows)
	}
	return &Problem{Layout: l, Defects: dm}, nil
}

// Scratch holds the reusable working storage of one mapping worker: the
// assignment buffers, the row masks, the ablation's order buffers and the
// bipartite matcher with its lazily filled candidate rows. Nothing in it
// outlives a call: every call tests the pairs it needs against the map as
// it is, so a map regenerated in place needs no invalidation. One Scratch
// per goroutine makes the Monte Carlo yield trial loop allocation-free in
// steady state. The zero value is ready; a Scratch must not be shared
// between goroutines.
type Scratch struct {
	occupant, place     []int
	allRows, assignment []int
	// order/orderKey hold the product order of HBAWith's ordering options.
	order, orderKey []int
	match           matcher
	// free holds the unoccupied usable CM rows (no stuck-closed device) and
	// occ the occupied ones; EA's matching reads free as its availability
	// mask. fill is the ScarcityOrder option's candidate row.
	free, occ, fill bitmat.Row
}

// NewScratch returns an empty Scratch (buffers grow on first use).
func NewScratch() *Scratch { return &Scratch{} }

// Failure reasons are constant strings: the Monte Carlo yield loops discard
// them (only Valid is read), and formatting an index into them would be the
// one allocation left in an otherwise allocation-free trial loop. Callers
// needing the exact failing line re-check with Validate.
const (
	reasonPoisonedColumn = "a used column is poisoned by a stuck-closed defect"
	reasonRowCollision   = "a row collides with a defect"
	reasonNoProductRow   = "a product row has no compatible crossbar row"
	reasonRowShortage    = "not enough usable crossbar rows for the layout"
	reasonNoAssignment   = "no zero-cost assignment exists"
	reasonOutputShortage = "not enough free rows for outputs"
	reasonOutputsBlocked = "outputs cannot be assigned defect-free"
)

// growInts resizes a scratch int slice without zeroing.
//
//xbar:hotpath
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		//xbar:allow hotpath-alloc grow-once scratch buffer; steady state reuses it
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growRow resizes a scratch packed row to cols columns without preserving
// contents.
//
//xbar:hotpath
func growRow(buf *bitmat.Row, cols int) bitmat.Row {
	n := bitmat.Words(cols)
	if cap(*buf) < n {
		//xbar:allow hotpath-alloc grow-once scratch buffer; steady state reuses it
		*buf = make(bitmat.Row, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// usableRows fills s.free with the CM rows that can host a logic row at
// all, those without a stuck-closed device.
//
//xbar:hotpath
func (s *Scratch) usableRows(p *Problem) bitmat.Row {
	nCM := p.Defects.Rows
	free := growRow(&s.free, nCM)
	free.Fill(nCM)
	free.AndNot(p.Defects.ClosedRows())
	return free
}

// firstFit is bitmat.FirstSubset on FM row i, counting the pairs it tested.
//
//xbar:hotpath
func firstFit(p *Problem, i int, mask bitmat.Row, from int, stats *Stats) int {
	t, n := bitmat.FirstSubset(p.Layout.ActiveRow(i), p.Defects.FunctionalMatrix(), mask, from)
	stats.MatchChecks += n
	return t
}

// ColumnFeasible reports whether every column the layout actually uses is
// free of stuck-at-closed defects. A closed device poisons its entire
// vertical line, and columns cannot be re-routed, so a used poisoned column
// makes every mapping invalid regardless of row assignment (Section IV-A).
// One word-AND pass over the layout's precomputed used-columns mask and the
// defect map's cached closed-columns mask.
func (p *Problem) ColumnFeasible() (bool, int) {
	if c := bitmat.FirstAnd(p.Layout.UsedColumns(), p.Defects.ClosedCols()); c >= 0 {
		return false, c
	}
	return true, -1
}

// rowMatches tests the paper's row-matching rule on the packed rows,
// counting the check: CM row usable (no stuck-closed device, O(1) cached)
// and fmRow &^ cmFunctional == 0.
//
//xbar:hotpath
func (p *Problem) rowMatches(fmRow int, cmRow int, stats *Stats) bool {
	stats.MatchChecks++
	if p.Defects.RowHasClosed(cmRow) {
		return false // forced-1 line cannot host any logic row
	}
	return bitmat.SubsetOf(p.Layout.ActiveRow(fmRow), p.Defects.FunctionalRow(cmRow))
}

// Naive places rows in identity order, ignoring defects, then validates.
// This is the defect-blind flow of Fig. 7(a); it exists as the baseline the
// defect-aware algorithms are compared against.
func Naive(p *Problem) Result { return NaiveScratch(p, nil) }

// NaiveScratch is Naive with reusable working storage (nil behaves like
// Naive).
func NaiveScratch(p *Problem, s *Scratch) Result {
	if s == nil {
		s = &Scratch{}
	}
	var stats Stats
	assignment := growInts(&s.assignment, p.Layout.Rows)
	for r := range assignment {
		assignment[r] = r
	}
	if ok, _ := p.ColumnFeasible(); !ok {
		return Result{Reason: reasonPoisonedColumn, Stats: stats}
	}
	for r := range assignment {
		if !p.rowMatches(r, r, &stats) {
			return Result{Reason: reasonRowCollision, Stats: stats}
		}
	}
	return Result{Valid: true, Assignment: assignment, Stats: stats}
}

// Exact is the paper's EA: it solves the full assignment of every FM row
// to a distinct compatible CM row — the paper runs Munkres' method on the
// matching matrix of Fig. 8(c); here it is bipartite matching on the
// candidate bitsets, which has a solution exactly when a zero-cost Munkres
// assignment does. EA is exact: if any valid row assignment exists, it
// finds one.
func Exact(p *Problem) Result { return ExactScratch(p, nil) }

// ExactScratch is Exact with reusable working storage (nil behaves like
// Exact). The matching tests pairs only as it needs them: a first-fit seed
// over the usable rows, then one batched candidate fill per FM row its
// augmenting search reads.
func ExactScratch(p *Problem, s *Scratch) Result {
	if s == nil {
		s = &Scratch{}
	}
	var stats Stats
	if ok, _ := p.ColumnFeasible(); !ok {
		return Result{Reason: reasonPoisonedColumn, Stats: stats}
	}
	nFM := p.Layout.Rows
	// A stuck-closed CM row matches no FM row, so fewer usable rows than FM
	// rows fails before any pair is tested.
	avail := s.usableRows(p)
	if bitmat.PopCount(avail) < nFM {
		return Result{Reason: reasonRowShortage, Stats: stats}
	}
	rows := growInts(&s.allRows, nFM)
	for i := range rows {
		rows[i] = i
	}
	place := growInts(&s.place, nFM)
	ok := s.match.match(p.Layout.ActiveMatrix(), p.Defects.FunctionalMatrix(), rows, avail, place)
	stats.MatchChecks += s.match.checks
	if !ok {
		return Result{Reason: reasonNoAssignment, Stats: stats}
	}
	return Result{Valid: true, Assignment: place, Stats: stats}
}

// HBA is the paper's hybrid algorithm (Algorithm 1): a greedy top-to-bottom
// heuristic with single-level backtracking places the product (minterm)
// rows, then an exact assignment places the output rows — the critical
// resource, since a single defect can discard a whole output — onto the
// remaining crossbar rows. The paper uses Munkres' method for that step;
// here it is the same bipartite matching as Exact, restricted to the CM
// rows the products left free.
func HBA(p *Problem) Result { return HBAScratch(p, nil) }

// HBAScratch is HBA with reusable working storage (nil behaves like HBA):
// HBAWith under PaperHBAOptions.
func HBAScratch(p *Problem, s *Scratch) Result { return HBAWith(p, PaperHBAOptions(), s) }

// HBAWith runs the hybrid algorithm under the given option set with
// reusable working storage (nil behaves like a fresh Scratch). Every scan
// is the masked first-fit kernel over the usable CM rows, top to bottom:
// the greedy scan over the free rows, the backtracking walk over the
// occupied ones, and each relocation over the free ones again. It tests a
// pair only when the scan reaches it, in the order of the per-pair scans
// of Algorithm 1, so placements are those of the per-pair loops.
func HBAWith(p *Problem, opt HBAOptions, s *Scratch) Result {
	if s == nil {
		s = &Scratch{}
	}
	var stats Stats
	if ok, _ := p.ColumnFeasible(); !ok {
		return Result{Reason: reasonPoisonedColumn, Stats: stats}
	}
	nCM := p.Defects.Rows
	// occupant[t] = FM product row currently on CM row t, or -1. free and
	// occ split the usable CM rows into unoccupied and occupied.
	occupant := growInts(&s.occupant, nCM)
	for t := range occupant {
		occupant[t] = -1
	}
	place := growInts(&s.place, p.Layout.Rows)
	for r := range place {
		place[r] = -1
	}
	free := s.usableRows(p)
	occ := growRow(&s.occ, nCM)
	occ.Zero()

	for _, i := range s.productOrder(p, opt, &stats) {
		if t := firstFit(p, i, free, 0, &stats); t >= 0 {
			occupant[t], place[i] = i, t
			free.Clear(t)
			occ.Set(t)
			continue
		}
		if !opt.Backtracking {
			return Result{Reason: reasonNoProductRow, Stats: stats}
		}
		// Backtracking: walk occupied CM rows compatible with row i top to
		// bottom; if relocating such a row's occupant to a free row
		// succeeds, row i takes its place. The lifted row t stays outside
		// free, so the relocation scan never offers it back.
		stats.Backtracks++
		placed := false
		for t := firstFit(p, i, occ, 0, &stats); t >= 0; t = firstFit(p, i, occ, t+1, &stats) {
			prev := occupant[t]
			if u := firstFit(p, prev, free, 0, &stats); u >= 0 {
				occupant[u], place[prev] = prev, u
				free.Clear(u)
				occ.Set(u)
				occupant[t], place[i] = i, t
				placed = true
				break
			}
		}
		if !placed {
			return Result{Reason: reasonNoProductRow, Stats: stats}
		}
	}

	outputs := p.Layout.OutputRows()
	if !opt.ExactOutputs {
		// First-fit output placement among the free rows, with no
		// relocation: this isolates exactly the choice the paper motivates
		// (an exact assignment of the outputs vs continuing the greedy
		// scan). Whenever the first fit succeeds, the exact matching also
		// succeeds, so the exact variant dominates this one by construction.
		for _, i := range outputs {
			t := firstFit(p, i, free, 0, &stats)
			if t < 0 {
				return Result{Reason: reasonOutputsBlocked, Stats: stats}
			}
			place[i] = t
			free.Clear(t)
		}
		return Result{Valid: true, Assignment: place, Stats: stats}
	}
	// Exact assignment of the output rows onto the unoccupied CM rows; the
	// stuck-closed rows count as unoccupied but host nothing.
	if bitmat.PopCount(free)+bitmat.PopCount(p.Defects.ClosedRows()) < len(outputs) {
		return Result{Reason: reasonOutputShortage, Stats: stats}
	}
	ok := s.match.match(p.Layout.ActiveMatrix(), p.Defects.FunctionalMatrix(), outputs, free, place)
	stats.MatchChecks += s.match.checks
	if !ok {
		return Result{Reason: reasonOutputsBlocked, Stats: stats}
	}
	return Result{Valid: true, Assignment: place, Stats: stats}
}

// Validate re-checks a claimed assignment against the matching rule,
// independent of how it was produced.
func (p *Problem) Validate(assignment []int) error {
	if len(assignment) != p.Layout.Rows {
		return fmt.Errorf("mapping: assignment covers %d rows, layout has %d", len(assignment), p.Layout.Rows)
	}
	if ok, c := p.ColumnFeasible(); !ok {
		return fmt.Errorf("mapping: used column %d is poisoned", c)
	}
	seen := make(map[int]bool, len(assignment))
	var stats Stats
	for r, t := range assignment {
		if t < 0 || t >= p.Defects.Rows {
			return fmt.Errorf("mapping: row %d assigned outside the crossbar (%d)", r, t)
		}
		if seen[t] {
			return fmt.Errorf("mapping: physical row %d used twice", t)
		}
		seen[t] = true
		if !p.rowMatches(r, t, &stats) {
			return fmt.Errorf("mapping: row %d collides with defects on physical row %d", r, t)
		}
	}
	return nil
}

// BruteForce searches all row permutations for a valid mapping. It is the
// test oracle for EA's exactness claim and is exponential; callers must keep
// the instance small.
func BruteForce(p *Problem, limitRows int) Result {
	var stats Stats
	if p.Layout.Rows > limitRows {
		return Result{Reason: fmt.Sprintf("instance too large for brute force (%d rows)", p.Layout.Rows)}
	}
	if ok, c := p.ColumnFeasible(); !ok {
		return Result{Reason: fmt.Sprintf("column %d poisoned", c), Stats: stats}
	}
	nCM := p.Defects.Rows
	used := make([]bool, nCM)
	assignment := make([]int, p.Layout.Rows)
	var rec func(r int) bool
	rec = func(r int) bool {
		if r == p.Layout.Rows {
			return true
		}
		for t := 0; t < nCM; t++ {
			if used[t] || !p.rowMatches(r, t, &stats) {
				continue
			}
			used[t] = true
			assignment[r] = t
			if rec(r + 1) {
				return true
			}
			used[t] = false
		}
		return false
	}
	if rec(0) {
		return Result{Valid: true, Assignment: assignment, Stats: stats}
	}
	return Result{Reason: "exhaustive search found no valid mapping", Stats: stats}
}
