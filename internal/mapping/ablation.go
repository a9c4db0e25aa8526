package mapping

import (
	"fmt"
	"sort"

	"repro/internal/bitmat"
)

// HBAOptions exposes the hybrid algorithm's design choices for ablation:
// the paper motivates (a) backtracking in the product phase and (b) an
// exact assignment for the output rows ("more critical since a single
// defect might discard a whole output"). Disabling either quantifies its
// contribution; DensityOrder is an extension beyond the paper.
type HBAOptions struct {
	// Backtracking enables the single-level relocation step of Algorithm 1.
	Backtracking bool
	// ExactOutputs assigns output rows with an exact bipartite matching
	// (the paper's Munkres step); when false, outputs are placed with the
	// same greedy scan as products.
	ExactOutputs bool
	// DensityOrder places the densest product rows (most required-active
	// devices) first instead of top-to-bottom. Hard rows grab scarce
	// compatible lines early; an extension beyond the paper.
	DensityOrder bool
	// ScarcityOrder places the product rows with the fewest compatible CM
	// rows first, reading each row's candidate popcount off the batched
	// matching kernel. Rows with the scarcest options commit before the
	// flexible ones consume their lines; an extension beyond the paper.
	// Takes precedence over DensityOrder.
	ScarcityOrder bool
}

// PaperHBAOptions returns Algorithm 1 as published: backtracking on, exact
// output assignment on, top-to-bottom order.
func PaperHBAOptions() HBAOptions {
	return HBAOptions{Backtracking: true, ExactOutputs: true}
}

// HBAWith runs the hybrid algorithm under the given option set.
func HBAWith(p *Problem, opt HBAOptions) Result {
	var stats Stats
	if ok, c := p.ColumnFeasible(); !ok {
		return Result{Reason: fmt.Sprintf("column %d poisoned by a stuck-closed defect", c), Stats: stats}
	}
	nCM := p.Defects.Rows
	products := append([]int(nil), p.Layout.ProductRows()...)
	outputs := p.Layout.OutputRows()
	switch {
	case opt.ScarcityOrder:
		// The ordering pass costs one batched-kernel sweep on top of the
		// per-pair loops below (this path is the ablation harness, not the
		// hot path). Its checks go to a throwaway Stats so MatchChecks keeps
		// the per-pair early-exit convention of the other variants.
		var s Scratch
		var orderStats Stats
		s.computeCandidates(p, &orderStats)
		scarcity := func(r int) int { return bitmat.PopCount(s.cand.Row(r)) }
		sort.SliceStable(products, func(a, b int) bool {
			return scarcity(products[a]) < scarcity(products[b])
		})
	case opt.DensityOrder:
		density := func(r int) int { return bitmat.PopCount(p.Layout.ActiveRow(r)) }
		sort.SliceStable(products, func(a, b int) bool {
			return density(products[a]) > density(products[b])
		})
	}

	occupant := make([]int, nCM)
	for t := range occupant {
		occupant[t] = -1
	}
	place := make([]int, p.Layout.Rows)
	for r := range place {
		place[r] = -1
	}
	findUnmatched := func(fmRow, except int) int {
		for t := 0; t < nCM; t++ {
			if t == except {
				continue
			}
			if occupant[t] == -1 && p.rowMatches(fmRow, t, &stats) {
				return t
			}
		}
		return -1
	}
	placeRow := func(i int) bool {
		if t := findUnmatched(i, -1); t >= 0 {
			occupant[t] = i
			place[i] = t
			return true
		}
		if !opt.Backtracking {
			return false
		}
		stats.Backtracks++
		for t := 0; t < nCM; t++ {
			if occupant[t] == -1 || !p.rowMatches(i, t, &stats) {
				continue
			}
			prev := occupant[t]
			occupant[t] = -1
			if u := findUnmatched(prev, t); u >= 0 {
				occupant[u] = prev
				place[prev] = u
				occupant[t] = i
				place[i] = t
				return true
			}
			occupant[t] = prev
		}
		return false
	}

	for _, i := range products {
		if !placeRow(i) {
			return Result{
				Reason: fmt.Sprintf("product row %d has no compatible crossbar row", i),
				Stats:  stats,
			}
		}
	}
	if !opt.ExactOutputs {
		// First-fit output placement among the free rows, with no
		// relocation: this isolates exactly the choice the paper motivates
		// (an exact assignment of the outputs vs continuing the greedy
		// scan). Whenever the first-fit succeeds, the exact matching also
		// succeeds, so the exact variant dominates this one by construction.
		for _, i := range outputs {
			t := findUnmatched(i, -1)
			if t < 0 {
				return Result{
					Reason: fmt.Sprintf("output row %d has no compatible crossbar row", i),
					Stats:  stats,
				}
			}
			occupant[t] = i
			place[i] = t
		}
		return Result{Valid: true, Assignment: place, Stats: stats}
	}

	freeRow := bitmat.NewRow(nCM)
	for t := 0; t < nCM; t++ {
		if occupant[t] == -1 {
			freeRow.Set(t)
		}
	}
	if bitmat.PopCount(freeRow) < len(outputs) {
		return Result{Reason: "not enough free rows for outputs", Stats: stats}
	}
	// Candidate bitsets of the output rows over the free CM rows, one
	// counted per-pair test each.
	cand := bitmat.New(p.Layout.Rows, nCM)
	for _, i := range outputs {
		row := cand.Row(i)
		for t := freeRow.NextSet(0); t >= 0; t = freeRow.NextSet(t + 1) {
			if p.rowMatches(i, t, &stats) {
				row.Set(t)
			}
		}
	}
	var m matcher
	if !m.match(cand, outputs, freeRow, place) {
		return Result{Reason: "outputs cannot be assigned defect-free", Stats: stats}
	}
	return Result{Valid: true, Assignment: place, Stats: stats}
}
