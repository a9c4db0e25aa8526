package mapping

import "repro/internal/bitmat"

// matcher decides the paper's assignment step — does every listed FM row
// get its own compatible CM row? — as bipartite matching on the candidate
// bitsets. EA runs it over every FM row, HBA over its output rows and the
// CM rows its product phase left free. A zero-cost complete assignment
// exists exactly when a row-saturating matching does, so this answers the
// same question as the Munkres formulation (internal/munkres, the test
// oracle) without materializing a cost matrix.
//
// The search is a greedy first-fit seed followed, for each row the seed
// could not place, by a depth-first augmenting-path search (Kuhn's method).
// At the paper's 10 % stuck-open rate the seed leaves fewer than eight
// rows on average for the search on each BenchmarkTable2EA circuit,
// 583-row alu4 included, so the plain search is kept; Hopcroft & Karp's
// layered phases (SIAM J. Comput. 1973) improve the worst case but add a
// breadth-first pass per phase. Both frontiers are word scans: a free
// candidate is the first set bit of cand & free, the rows still to explore
// are cand &^ seen. The buffers grow once and are reused, so a warm
// matcher allocates nothing.
type matcher struct {
	cand  *bitmat.Matrix
	place []int
	// owner[t] is the FM row holding CM row t; meaningful only for
	// available rows that are no longer free.
	owner []int
	// free holds the available CM rows not yet taken; seen holds the rows
	// the current augmenting search has visited plus every unavailable
	// row, so cand &^ seen is the unexplored frontier.
	free, seen bitmat.Row
}

// match places every FM row listed in rows onto a distinct CM row that is
// set in avail and in the row's candidate bitset cand.Row(i), writing the
// choice to place[i]. It reports whether such a placement exists; on false,
// place holds a partial assignment. avail must have cand.Cols columns.
//
//xbar:hotpath
func (m *matcher) match(cand *bitmat.Matrix, rows []int, avail bitmat.Row, place []int) bool {
	m.cand, m.place = cand, place
	growInts(&m.owner, cand.Cols)
	free := growRow(&m.free, cand.Cols)
	copy(free, avail)
	seen := growRow(&m.seen, cand.Cols)
	for _, i := range rows {
		place[i] = -1
		if t := bitmat.FirstAnd(cand.Row(i), free); t >= 0 {
			m.take(i, t)
		}
	}
	for _, i := range rows {
		if place[i] >= 0 {
			continue
		}
		for w := range seen {
			seen[w] = ^avail[w]
		}
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
	c := m.cand.Row(i)
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
