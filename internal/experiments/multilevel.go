package experiments

import (
	"fmt"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

// MLRow is one circuit of the multi-level defect-mapping study — the
// integration of multi-level synthesis with defect-tolerant mapping that
// the paper's Section VI names as future work. HBA and EA operate on any
// layout's function matrix, so the same machinery applies to gate rows.
type MLRow struct {
	Name  string
	Gates int
	Wires int
	Rows  int
	Cols  int
	Area  int
	IR    float64
	HBA   AlgoStats
	EA    AlgoStats
}

// MLOptions tunes the study.
type MLOptions struct {
	// Samples per circuit; zero means the paper's 200.
	Samples int
	// DefectRate is the stuck-open probability; zero means 0.10.
	DefectRate float64
	Seed       int64
	// Circuits restricts the run (nil = a representative default set; the
	// very large profiles are excluded because random dense covers factor
	// into very wide multi-level layouts).
	Circuits []string
	// Engine, when set, runs the study's jobs (one monte-carlo-yield job
	// per circuit and algorithm) on the compilation engine. When nil, the
	// same jobs run one by one through engine.Execute, with identical
	// Psucc.
	Engine *engine.Engine
}

// DefaultMLCircuits is the default circuit set for the multi-level study.
var DefaultMLCircuits = []string{"rd53", "squar5", "misex1", "sqrt8", "inc", "sao2"}

// MultiLevelMapping measures defect-tolerant mapping success on multi-level
// layouts at the given stuck-open rate, on optimum-size fabrics.
func MultiLevelMapping(opt MLOptions) ([]MLRow, error) {
	if opt.Samples == 0 {
		opt.Samples = montecarlo.DefaultSamples
	}
	if opt.DefectRate == 0 {
		opt.DefectRate = 0.10
	}
	circuits := opt.Circuits
	if circuits == nil {
		circuits = DefaultMLCircuits
	}
	var (
		rows    []MLRow
		layouts []*xbar.Layout
	)
	for _, name := range circuits {
		c, ok := suite.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown circuit %q", name)
		}
		cov := c.Build()
		if c.Kind == suite.Exact {
			cov = minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
		}
		nw, err := synth.SynthesizeMultiLevel(cov, synth.MultiLevelOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", name, err)
		}
		l, err := xbar.NewMultiLevel(nw)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", name, err)
		}
		rows = append(rows, MLRow{
			Name:  name,
			Gates: nw.NumGates(),
			Wires: nw.NumInternalWires(),
			Rows:  l.Rows,
			Cols:  l.Cols,
			Area:  l.Area(),
			IR:    l.InclusionRatio(),
		})
		layouts = append(layouts, l)
	}
	cols, err := runPairs(opt.Engine, circuits, layouts, opt.DefectRate, opt.Samples, opt.Seed)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].HBA, rows[i].EA = cols[i][0], cols[i][1]
	}
	return rows, nil
}

// Ablation compares HBA design-choice variants (backtracking, exact output
// assignment, density ordering) on one circuit, extending the paper's
// algorithm discussion with measured contributions.
type AblationRow struct {
	Variant string
	Psucc   float64
	Mean    time.Duration
}

// Ablation runs the HBA variants of mapping.HBAOptions on the named circuit.
func Ablation(circuit string, samples int, rate float64, seed int64) ([]AblationRow, error) {
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
	variants := []struct {
		name string
		opt  mapping.HBAOptions
	}{
		{"greedy only", mapping.HBAOptions{}},
		{"+backtracking", mapping.HBAOptions{Backtracking: true}},
		{"+exact outputs (paper HBA)", mapping.PaperHBAOptions()},
		{"+density order (extension)", mapping.HBAOptions{Backtracking: true, ExactOutputs: true, DensityOrder: true}},
		{"+scarcity order (extension)", mapping.HBAOptions{Backtracking: true, ExactOutputs: true, ScarcityOrder: true}},
	}
	var rows []AblationRow
	for _, v := range variants {
		opt := v.opt
		hba := func(p *mapping.Problem, s *mapping.Scratch) mapping.Result { return mapping.HBAWith(p, opt, s) }
		summary, err := montecarlo.Run(montecarlo.Options{Samples: samples, Seed: seed},
			engine.MappingTrial(l, 0, defect.Params{POpen: rate}, hba))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Psucc: summary.SuccessRate, Mean: summary.MeanTime})
	}
	return rows, nil
}
