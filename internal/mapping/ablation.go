package mapping

import "repro/internal/bitmat"

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

// productOrder returns the product rows in the order HBA places them: top
// to bottom, or stably sorted by the ordering option in the scratch's order
// buffer. ScarcityOrder's key is the popcount of each row's candidate
// bitset over the usable CM rows, one counted batched-kernel pass per row.
//
//xbar:hotpath
func (s *Scratch) productOrder(p *Problem, opt HBAOptions, stats *Stats) []int {
	products := p.Layout.ProductRows()
	if !opt.ScarcityOrder && !opt.DensityOrder {
		return products
	}
	order := growInts(&s.order, len(products))
	key := growInts(&s.orderKey, len(products))
	copy(order, products)
	nCM := p.Defects.Rows
	for k, i := range order {
		if opt.ScarcityOrder {
			fill := growRow(&s.fill, nCM)
			bitmat.MatchRowAgainst(p.Layout.ActiveRow(i), p.Defects.FunctionalMatrix(), fill)
			fill.AndNot(p.Defects.ClosedRows())
			key[k] = bitmat.PopCount(fill)
			stats.MatchChecks += nCM
		} else {
			key[k] = bitmat.PopCount(p.Layout.ActiveRow(i))
		}
	}
	stableSortByKey(order, key, !opt.ScarcityOrder)
	return order
}
