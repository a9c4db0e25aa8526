package mapping

import "repro/internal/bitmat"

// matcher decides the paper's assignment step — does every listed FM row
// get its own compatible CM row? — as bipartite matching. EA runs it over
// every FM row, HBA over its output rows and the CM rows its product phase
// left free. A zero-cost complete assignment exists exactly when a
// row-saturating matching does, so this answers the same question as the
// Munkres formulation (internal/munkres, the test oracle) without
// materializing a cost matrix.
//
// The search is a greedy first-fit seed followed, for each row the seed
// could not place, by a depth-first augmenting-path search (Kuhn's method).
// At the paper's 10 % stuck-open rate the seed leaves fewer than eight
// rows on average for the search on each BenchmarkTable2EA circuit,
// 583-row alu4 included, so the plain search is kept; Hopcroft & Karp's
// layered phases (SIAM J. Comput. 1973) improve the worst case but add a
// breadth-first pass per phase.
//
// Pairs are tested on demand. The seed runs the masked first-fit kernel
// (bitmat.FirstSubset) over the free rows, stopping at each row's first
// fit. An FM row's candidate bitset — the available CM rows it fits — is
// filled with one batched-kernel pass (bitmat.MatchRowAgainst) only when
// the augmenting search first reads that row, and the known mask records
// which rows are filled in this call. Both search frontiers are word
// scans: a free candidate is the first set bit of cand & free, the rows
// still to explore are cand &^ seen. The buffers grow once and are
// reused, so a warm matcher allocates nothing.
type matcher struct {
	fm, cm *bitmat.Matrix
	avail  bitmat.Row
	place  []int
	// owner[t] is the FM row holding CM row t; meaningful only for
	// available rows that are no longer free.
	owner []int
	// free holds the available CM rows not yet taken; seen holds the rows
	// the current augmenting search has visited, so cand &^ seen is the
	// unexplored frontier.
	free, seen bitmat.Row
	// cand holds FM row i's candidate bitset in words [i*w, (i+1)*w),
	// w = len(free), valid only while known has bit i.
	cand  []uint64
	known bitmat.Row
	// checks counts the pair tests of the current call: the rows each
	// first fit examined plus cm.Rows per filled candidate row.
	checks int
}

// reset prepares the matcher for one call on FM rows fm against CM rows cm,
// restricted to the CM rows set in avail, writing placements to place.
// avail must have cm.Rows columns; it is read, never written.
//
//xbar:hotpath
func (m *matcher) reset(fm, cm *bitmat.Matrix, avail bitmat.Row, place []int) {
	m.fm, m.cm, m.avail, m.place, m.checks = fm, cm, avail, place, 0
	growInts(&m.owner, cm.Rows)
	copy(growRow(&m.free, cm.Rows), avail)
	growRow(&m.seen, cm.Rows)
	growRow(&m.known, fm.Rows).Zero()
	if n := fm.Rows * len(m.free); cap(m.cand) < n {
		//xbar:allow hotpath-alloc grow-once candidate storage; steady state reuses it
		m.cand = make([]uint64, n)
	}
}

// candidates returns FM row i's candidate bitset, filling it on the call's
// first read: one MatchRowAgainst pass ANDed with avail.
//
//xbar:hotpath
func (m *matcher) candidates(i int) bitmat.Row {
	w := len(m.free)
	row := bitmat.Row(m.cand[i*w : (i+1)*w : (i+1)*w])
	if !m.known.Get(i) {
		bitmat.MatchRowAgainst(m.fm.Row(i), m.cm, row)
		for k, a := range m.avail {
			row[k] &= a
		}
		m.known.Set(i)
		m.checks += m.cm.Rows
	}
	return row
}

// match places every FM row listed in rows onto a distinct CM row that is
// set in avail and that the row fits, writing the choice to place[i]. It
// reports whether such a placement exists; on false, place holds a partial
// assignment. fm and cm must have equal column counts and avail cm.Rows
// columns.
//
//xbar:hotpath
func (m *matcher) match(fm, cm *bitmat.Matrix, rows []int, avail bitmat.Row, place []int) bool {
	m.reset(fm, cm, avail, place)
	for _, i := range rows {
		place[i] = -1
		t, n := bitmat.FirstSubset(fm.Row(i), cm, m.free, 0)
		m.checks += n
		if t >= 0 {
			m.take(i, t)
		}
	}
	for _, i := range rows {
		if place[i] >= 0 {
			continue
		}
		m.seen.Zero()
		if !m.augment(i) {
			return false
		}
	}
	return true
}

// augment searches for an alternating path from the unplaced row i to a
// free CM row and flips it, so i and every row along the path end up
// placed. Each CM row is explored at most once per search.
//
//xbar:hotpath
func (m *matcher) augment(i int) bool {
	c := m.candidates(i)
	if t := bitmat.FirstAnd(c, m.free); t >= 0 {
		m.take(i, t)
		return true
	}
	for t := bitmat.NextAndNot(c, m.seen, 0); t >= 0; t = bitmat.NextAndNot(c, m.seen, t+1) {
		m.seen.Set(t)
		if m.augment(m.owner[t]) {
			m.owner[t], m.place[i] = i, t
			return true
		}
	}
	return false
}

// take places row i on the free CM row t.
//
//xbar:hotpath
func (m *matcher) take(i, t int) {
	m.owner[t], m.place[i] = i, t
	m.free.Clear(t)
}
