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
// AND-NOT word operations instead of a per-column scan. HBA and EA go one
// step further and never test pairs in their enumeration loops at all: the
// batched kernel (bitmat.MatchRowAgainst) computes each FM row's full
// candidate bitset over every CM row in one pass, and the greedy scans,
// backtracking relocations, and assignment matching read those bitsets
// with word operations — the greedy and backtracking scans visit rows in
// the same top-to-bottom order as the pre-batch scans, so product
// placements are bit-identical. The equivalence tests check both paths
// against the pre-refactor scalar matcher (scalarRowMatches, in
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
	// MatchChecks is the number of row-compatibility tests. The batched
	// kernel performs them in bulk — one pass of bitmat.MatchRowAgainst
	// tests one FM row against every CM row and counts Defects.Rows checks —
	// so algorithms built on candidate bitsets report the enumeration
	// volume, not the pre-batch early-exit scan count.
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
// assignment buffers, the candidate-bitset matrix and the bipartite
// matcher. One Scratch per goroutine makes the Monte Carlo yield trial loop
// allocation-free in steady state. The zero value is ready; a Scratch must
// not be shared between goroutines.
type Scratch struct {
	occupant, place     []int
	allRows, assignment []int
	match               matcher
	// cand holds one candidate bitset per FM row (bit t = FM row fits CM
	// row t), built by the batched matching kernel; freeMask tracks the
	// unoccupied CM rows during HBA's greedy phase and is the all-rows
	// availability mask of EA's matching.
	cand     bitmat.Matrix
	freeMask bitmat.Row
	// candMap/candLayout/candVersion identify the (defect map, layout,
	// map version) s.cand was last built for: while all three are
	// unchanged, computeCandidates skips the rebuild.
	candMap     *defect.Map
	candLayout  *xbar.Layout
	candVersion uint64
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

// computeCandidates fills s.cand with the candidate bitset of every FM row:
// one batched-kernel pass per row over the defect map's packed functional
// matrix, then a word-AND against the complement of the poisoned-row mask.
// Bit t of s.cand.Row(i) afterwards equals rowMatches(i, t). Each pass
// tests the row against all Defects.Rows CM rows, which is what MatchChecks
// accounts. A call on the same map, layout and map version as the last
// build skips the work: the bitsets are still exact.
//
//xbar:hotpath
func (s *Scratch) computeCandidates(p *Problem, stats *Stats) {
	nFM, nCM := p.Layout.Rows, p.Defects.Rows
	// MatchChecks accounts the enumeration volume — nFM × nCM row tests —
	// even when the skip below runs none of them, so Stats are identical
	// across cold and warm runs (the equivalence tests compare them
	// exactly).
	stats.MatchChecks += nFM * nCM
	m := p.Defects
	if s.candMap == m && s.candLayout == p.Layout && s.candVersion == m.Version() &&
		s.cand.Rows == nFM && s.cand.Cols == nCM {
		return
	}
	//xbar:allow hotpath-alloc Reshape reuses the backing words and allocates only when the fabric grows
	s.cand.Reshape(nFM, nCM)
	fn := m.FunctionalMatrix()
	closed := m.ClosedRows()
	for i := 0; i < nFM; i++ {
		row := s.cand.Row(i)
		bitmat.MatchRowAgainst(p.Layout.ActiveRow(i), fn, row)
		row.AndNot(closed)
	}
	s.candMap, s.candLayout, s.candVersion = m, p.Layout, m.Version()
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
// Exact). The matching reads the batched candidate bitsets — one kernel
// pass per FM row — instead of re-testing pairs.
func ExactScratch(p *Problem, s *Scratch) Result {
	if s == nil {
		s = &Scratch{}
	}
	var stats Stats
	if ok, _ := p.ColumnFeasible(); !ok {
		return Result{Reason: reasonPoisonedColumn, Stats: stats}
	}
	nFM, nCM := p.Layout.Rows, p.Defects.Rows
	// A stuck-closed CM row matches no FM row (the candidate bitsets
	// already exclude it), so fewer usable rows than FM rows fails before
	// the kernel runs.
	if nCM-bitmat.PopCount(p.Defects.ClosedRows()) < nFM {
		return Result{Reason: reasonRowShortage, Stats: stats}
	}
	s.computeCandidates(p, &stats)
	rows := growInts(&s.allRows, nFM)
	for i := range rows {
		rows[i] = i
	}
	avail := growRow(&s.freeMask, nCM)
	avail.Fill(nCM)
	place := growInts(&s.place, nFM)
	if !s.match.match(&s.cand, rows, avail, place) {
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

// HBAScratch is HBA with reusable working storage (nil behaves like HBA).
// The enumeration loops run on precomputed candidate bitsets: the greedy
// scan is a first-set-bit of cand & free, and the backtracking scan walks
// the set bits of cand &^ free — the same top-to-bottom visiting order (and
// therefore bit-identical placements) as the pre-batch per-pair scans.
func HBAScratch(p *Problem, s *Scratch) Result {
	if s == nil {
		s = &Scratch{}
	}
	var stats Stats
	if ok, _ := p.ColumnFeasible(); !ok {
		return Result{Reason: reasonPoisonedColumn, Stats: stats}
	}
	nCM := p.Defects.Rows
	products := p.Layout.ProductRows()
	outputs := p.Layout.OutputRows()
	s.computeCandidates(p, &stats)

	// occupant[t] = FM product row currently on CM row t, or -1; freeBits is
	// the packed mirror of the occupant == -1 predicate.
	occupant := growInts(&s.occupant, nCM)
	for t := range occupant {
		occupant[t] = -1
	}
	place := growInts(&s.place, p.Layout.Rows)
	for r := range place {
		place[r] = -1
	}
	freeBits := growRow(&s.freeMask, nCM)
	freeBits.Fill(nCM)

	for _, i := range products {
		cand := s.cand.Row(i)
		if t := bitmat.FirstAnd(cand, freeBits); t >= 0 {
			occupant[t] = i
			place[i] = t
			freeBits.Clear(t)
			continue
		}
		// Backtracking: walk matched CM rows compatible with row i top to
		// bottom; if relocating such a row's occupant to an unmatched row
		// succeeds, row i takes its place. The lifted row t stays outside
		// freeBits, so the relocation scan never offers it back.
		stats.Backtracks++
		placed := false
		for t := bitmat.NextAndNot(cand, freeBits, 0); t >= 0 && !placed; t = bitmat.NextAndNot(cand, freeBits, t+1) {
			prev := occupant[t]
			if u := bitmat.FirstAnd(s.cand.Row(prev), freeBits); u >= 0 {
				occupant[u] = prev
				place[prev] = u
				freeBits.Clear(u)
				occupant[t] = i
				place[i] = t
				placed = true
			}
		}
		if !placed {
			return Result{Reason: reasonNoProductRow, Stats: stats}
		}
	}

	// Exact assignment of the output rows onto the unmatched CM rows.
	if bitmat.PopCount(freeBits) < len(outputs) {
		return Result{Reason: reasonOutputShortage, Stats: stats}
	}
	if !s.match.match(&s.cand, outputs, freeBits, place) {
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
