package experiments

import (
	"fmt"

	"repro/internal/defect"
	"repro/internal/lfg"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/suite"
	"repro/internal/xbar"
)

// ClosedPoint is one configuration of the stuck-closed tolerance study.
type ClosedPoint struct {
	ClosedRate float64
	SparePairs int
	SpareRows  int
	// FixedPsucc is the success rate of the paper's fixed-wiring HBA; it
	// collapses as soon as closed defects hit used columns (Section IV-A).
	FixedPsucc float64
	// ColumnPsucc is the success rate of the column-permutation extension.
	ColumnPsucc float64
}

// ClosedTolerance sweeps stuck-at-closed defect rates against spare column
// pairs (and spare rows) for one circuit, comparing fixed-wiring HBA with
// the column-aware mapper. This turns the paper's qualitative Section IV-A
// statement — closed defects are untolerable without redundancy — into a
// measured yield curve.
func ClosedTolerance(circuit string, closedRates []float64, sparePairs, spareRows []int,
	openRate float64, samples int, seed int64) ([]ClosedPoint, error) {
	c, ok := suite.ByName(circuit)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown circuit %q", circuit)
	}
	cov := c.Build()
	if c.Kind == suite.Exact {
		cov = minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		return nil, err
	}
	base := mapping.SpecFor(l)
	var points []ClosedPoint
	for pi, sp := range sparePairs {
		sr := 0
		if pi < len(spareRows) {
			sr = spareRows[pi]
		}
		spec := mapping.FabricSpec{
			InputPairs:  base.InputPairs + sp,
			Wires:       base.Wires,
			OutputPairs: base.OutputPairs + sp,
		}
		for _, rate := range closedRates {
			// fixed/col are summed by the trials without a lock: a
			// montecarlo batch runs its trials serially on this goroutine.
			// Everything the trial touches — defect map, fixed-wiring
			// projection, row scratch, column scratch — is preallocated
			// here and reused, so the trial loop is allocation-free in
			// steady state.
			fixed, col := 0, 0
			dm := defect.NewMap(l.Rows+sr, spec.Cols())
			// Fixed wiring: the design occupies the leading columns of each
			// block (trial-invariant, built once per batch).
			fixedAssign := identityAssignment(l, base)
			fdm := defect.NewMap(dm.Rows, l.Cols)
			fixedProblem, fpErr := mapping.NewProblem(l, fdm)
			rowScratch := mapping.NewScratch()
			colScratch := mapping.NewColumnScratch()
			_, err := montecarlo.Run(montecarlo.Options{Samples: samples, Seed: seed},
				func(i int, src *lfg.Source) montecarlo.Outcome {
					if fpErr != nil {
						return montecarlo.Outcome{Err: fpErr}
					}
					if genErr := dm.Regenerate(defect.Params{POpen: openRate, PClosed: rate}, src); genErr != nil {
						return montecarlo.Outcome{Err: genErr}
					}
					mapping.ProjectDefectsInto(fdm, dm, spec, l, fixedAssign)
					if mapping.HBAScratch(fixedProblem, rowScratch).Valid {
						fixed++
					}
					res, caErr := mapping.ColumnAwareScratch(l, dm, spec, mapping.ColumnOptions{Seed: int64(i)}, colScratch)
					if caErr != nil {
						return montecarlo.Outcome{Err: caErr}
					}
					if res.Valid {
						col++
					}
					return montecarlo.Outcome{Success: res.Valid}
				})
			if err != nil {
				return nil, err
			}
			points = append(points, ClosedPoint{
				ClosedRate:  rate,
				SparePairs:  sp,
				SpareRows:   sr,
				FixedPsucc:  float64(fixed) / float64(samples),
				ColumnPsucc: float64(col) / float64(samples),
			})
		}
	}
	return points, nil
}

func identityAssignment(l *xbar.Layout, base mapping.FabricSpec) mapping.ColumnAssignment {
	a := mapping.ColumnAssignment{
		InputPair:  make([]int, base.InputPairs),
		Wire:       make([]int, base.Wires),
		OutputPair: make([]int, base.OutputPairs),
	}
	for i := range a.InputPair {
		a.InputPair[i] = i
	}
	for i := range a.Wire {
		a.Wire[i] = i
	}
	for i := range a.OutputPair {
		a.OutputPair[i] = i
	}
	return a
}
