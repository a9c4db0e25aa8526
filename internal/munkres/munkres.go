// Package munkres implements Munkres' assignment algorithm (the Hungarian
// method, O(n³)), the exact zero-cost row-assignment engine of the paper's
// defect-tolerant mapping flow [Munkres 1957].
//
// The paper uses it in two places: the exact algorithm (EA) assigns every
// function-matrix row to a crossbar row, and the hybrid algorithm (HBA)
// assigns only the output rows after the heuristic has placed the products.
// internal/mapping answers the same question — does a complete zero-cost
// assignment exist? — with bipartite matching on its candidate bitsets, so
// no production code imports this package: it is the reference oracle the
// mapping tests check that matcher and the pre-refactor algorithms against.
package munkres

import (
	"fmt"
	"math"
)

// Solver runs the assignment algorithm with reusable internal buffers, so a
// hot loop (the Monte Carlo yield trials) can solve thousands of instances
// without allocating. The zero value is ready to use; a Solver must not be
// shared between goroutines. Results are identical to the package-level
// Solve / SolveBinary, which are thin wrappers over a fresh Solver.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
	assignment []int
	cost       [][]float64
	costCells  []float64
}

// Solve finds a minimum-cost assignment of rows to columns of the cost
// matrix. The matrix may be rectangular with rows <= cols; every row is
// assigned a distinct column. It returns the column chosen for each row and
// the total cost.
//
// All costs must be finite and non-negative.
func Solve(cost [][]float64) (assignment []int, total float64, err error) {
	var s Solver
	return s.Solve(cost)
}

// Solve is the buffer-reusing form of the package-level Solve. The returned
// assignment aliases the Solver's scratch storage and is only valid until
// the next call on the same Solver.
func (s *Solver) Solve(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("munkres: ragged cost matrix at row %d", i)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("munkres: invalid cost %v at (%d,%d)", v, i, j)
			}
		}
	}
	if n > m {
		return nil, 0, fmt.Errorf("munkres: %d rows exceed %d columns; no complete assignment exists", n, m)
	}

	// Jonker-style O(n³) shortest augmenting path formulation of the
	// Hungarian method with row/column potentials. Columns and rows are
	// 1-indexed internally; index 0 is the virtual source.
	const inf = math.MaxFloat64
	u := growFloats(&s.u, n+1)   // row potentials
	v := growFloats(&s.v, m+1)   // column potentials
	p := growInts(&s.p, m+1)     // p[j] = row assigned to column j (0 = none)
	way := growInts(&s.way, m+1) // augmenting-path predecessors
	minv := growFloats(&s.minv, m+1)
	used := s.growUsed(m + 1)
	for j := range u {
		u[j] = 0
	}
	for j := range v {
		v[j] = 0
		p[j] = 0
	}

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assignment = growInts(&s.assignment, n)
	for i := range assignment {
		assignment[i] = 0
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			assignment[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][assignment[i]]
	}
	return assignment, total, nil
}

// SolveBinary runs Solve on a 0/1 matching matrix (false = a zero-cost valid
// pairing, true = cost 1 / forbidden) and reports whether a complete
// zero-cost assignment exists. This is exactly the validity test of the
// paper's Fig. 8(d): cost 0 means every function row landed on a compatible
// crossbar row.
func SolveBinary(forbidden [][]bool) (assignment []int, ok bool, err error) {
	var s Solver
	return s.SolveBinary(forbidden)
}

// SolveBinary is the buffer-reusing form of the package-level SolveBinary;
// the returned assignment aliases the Solver's scratch storage.
func (s *Solver) SolveBinary(forbidden [][]bool) (assignment []int, ok bool, err error) {
	n := len(forbidden)
	m := 0
	if n > 0 {
		m = len(forbidden[0])
	}
	if cap(s.cost) < n {
		s.cost = make([][]float64, n)
	}
	cost := s.cost[:n]
	if cap(s.costCells) < n*m {
		s.costCells = make([]float64, n*m)
	}
	cells := s.costCells[:n*m]
	for i, row := range forbidden {
		if len(row) != m {
			return nil, false, fmt.Errorf("munkres: ragged cost matrix at row %d", i)
		}
		cost[i] = cells[i*m : (i+1)*m]
		for j, bad := range row {
			if bad {
				cost[i][j] = 1
			} else {
				cost[i][j] = 0
			}
		}
	}
	assignment, total, err := s.Solve(cost)
	if err != nil {
		return nil, false, err
	}
	return assignment, total == 0, nil
}

// growFloats / growInts / growUsed resize a scratch slice without zeroing
// (callers reinitialize the prefix they use).
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (s *Solver) growUsed(n int) []bool {
	if cap(s.used) < n {
		s.used = make([]bool, n)
	}
	s.used = s.used[:n]
	return s.used
}
