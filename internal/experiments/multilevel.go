package experiments

import (
	"context"
	"fmt"
	"math/rand"
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
	// Engine, when set, routes the Monte Carlo batches through the
	// compilation engine (one job per circuit and algorithm), with Psucc
	// identical to the serial path.
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
	// Phase 1: geometry. Build every circuit's multi-level layout and the
	// static row columns; the Monte Carlo phase then runs either serially
	// or as one engine batch.
	var preps []mlPrepared
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
		preps = append(preps, mlPrepared{name: name, l: l, row: MLRow{
			Name:  name,
			Gates: nw.NumGates(),
			Wires: nw.NumInternalWires(),
			Rows:  l.Rows,
			Cols:  l.Cols,
			Area:  l.Area(),
			IR:    l.InclusionRatio(),
		}})
	}
	if opt.Engine != nil {
		return mlEngine(preps, opt)
	}
	var rows []MLRow
	for _, p := range preps {
		name, l, row := p.name, p.l, p.row
		var err error
		run := func(algo func(*mapping.Problem, *mapping.Scratch) mapping.Result) (AlgoStats, error) {
			summary, err := montecarlo.RunFactory(montecarlo.Options{
				Samples: opt.Samples, Seed: opt.Seed + int64(len(name)),
			}, yieldTrialFactory(l, 0, defect.Params{POpen: opt.DefectRate}, algo))
			if err != nil {
				return AlgoStats{}, err
			}
			return AlgoStats{Psucc: summary.SuccessRate, MeanTime: summary.MeanTime}, nil
		}
		if row.HBA, err = run(mapping.HBAScratch); err != nil {
			return nil, err
		}
		if row.EA, err = run(mapping.ExactScratch); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// mlPrepared is one circuit with its multi-level layout and static columns
// built, awaiting the Monte Carlo phase.
type mlPrepared struct {
	name string
	l    *xbar.Layout
	row  MLRow
}

// mlEngine runs the Monte Carlo phase of the multi-level study as one
// engine batch: two jobs (HBA, EA) per circuit on multi-level layouts.
func mlEngine(preps []mlPrepared, opt MLOptions) ([]MLRow, error) {
	var specs []engine.JobSpec
	for _, p := range preps {
		base := engine.JobSpec{
			Kind:     engine.MonteCarloYield,
			Layout:   p.l, // already synthesized in phase 1
			OpenRate: opt.DefectRate,
			Samples:  opt.Samples,
			Seed:     opt.Seed + int64(len(p.name)),
		}
		hba, ea := base, base
		hba.Algorithm, ea.Algorithm = "HBA", "EA"
		specs = append(specs, hba, ea)
	}
	results, err := opt.Engine.Run(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	rows := make([]MLRow, 0, len(preps))
	for i, p := range preps {
		hba, ea := results[2*i], results[2*i+1]
		if hba.Err != "" {
			return nil, fmt.Errorf("experiments: %s (HBA): %s", p.name, hba.Err)
		}
		if ea.Err != "" {
			return nil, fmt.Errorf("experiments: %s (EA): %s", p.name, ea.Err)
		}
		row := p.row
		row.HBA = AlgoStats{Psucc: hba.Psucc, MeanTime: hba.MeanTime}
		row.EA = AlgoStats{Psucc: ea.Psucc, MeanTime: ea.MeanTime}
		rows = append(rows, row)
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
		summary, err := montecarlo.RunFactory(montecarlo.Options{Samples: samples, Seed: seed},
			func() montecarlo.Trial {
				dm := defect.NewMap(l.Rows, l.Cols)
				p, pErr := mapping.NewProblem(l, dm)
				return func(i int, rng *rand.Rand) montecarlo.Outcome {
					if pErr != nil {
						return montecarlo.Outcome{Err: pErr}
					}
					if genErr := dm.Regenerate(defect.Params{POpen: rate}, rng); genErr != nil {
						return montecarlo.Outcome{Err: genErr}
					}
					start := time.Now()
					res := mapping.HBAWith(p, opt)
					return montecarlo.Outcome{Success: res.Valid, Elapsed: time.Since(start)}
				}
			})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Psucc: summary.SuccessRate, Mean: summary.MeanTime})
	}
	return rows, nil
}
