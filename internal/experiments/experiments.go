// Package experiments regenerates every table and figure of the paper's
// evaluation: the Fig. 6 Monte Carlo area comparison, the Table I benchmark
// area comparison (original and negated circuits), the Table II
// defect-tolerant mapping study (HBA vs EA success rate and runtime), the
// Fig. 7/8 worked example, and the Section VI redundancy/yield exploration.
//
// Both cmd/experiments and the root bench suite drive this package, so the
// printed rows and the benchmarked code paths are the same.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/randfunc"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

// ---------------------------------------------------------------------------
// Fig. 6: two-level vs multi-level area on random functions.

// Fig6Sample is one random function's costs.
type Fig6Sample struct {
	Products       int
	TwoLevelArea   int
	MultiLevelArea int
}

// Fig6Series is one subplot of Fig. 6 (one input size).
type Fig6Series struct {
	Inputs      int
	Samples     []Fig6Sample // sorted by product count, as in the figure
	SuccessRate float64      // fraction with MultiLevelArea < TwoLevelArea
}

// Fig6 reproduces the Monte Carlo study: `samples` random single-output
// functions per input size, two-level cost from the SOP, multi-level cost
// from the NAND synthesizer (the ABC substitute).
func Fig6(inputSizes []int, samples int, seed int64) ([]Fig6Series, error) {
	var out []Fig6Series
	for _, n := range inputSizes {
		s, err := fig6One(n, samples, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func fig6One(inputs, samples int, seed int64) (Fig6Series, error) {
	funcs, err := randfunc.GenerateBatch(randfunc.Params{Inputs: inputs}, samples, seed+int64(inputs)*7_919)
	if err != nil {
		return Fig6Series{}, err
	}
	series := Fig6Series{Inputs: inputs}
	wins := 0
	for _, f := range funcs {
		two := synth.TwoLevel(f)
		nw, err := synth.SynthesizeMultiLevel(f, synth.MultiLevelOptions{Minimize: true})
		if err != nil {
			return Fig6Series{}, err
		}
		multi := synth.MultiLevel(nw)
		series.Samples = append(series.Samples, Fig6Sample{
			Products:       two.Products,
			TwoLevelArea:   two.Area,
			MultiLevelArea: multi.Area,
		})
		if multi.Area < two.Area {
			wins++
		}
	}
	sort.SliceStable(series.Samples, func(a, b int) bool {
		return series.Samples[a].Products < series.Samples[b].Products
	})
	if samples > 0 {
		series.SuccessRate = float64(wins) / float64(samples)
	}
	return series, nil
}

// ---------------------------------------------------------------------------
// Table I: benchmark area comparison, original circuit and its negation.

// Table1Row is one benchmark line of Table I.
type Table1Row struct {
	Name string
	Kind suite.Kind
	// Original circuit.
	TwoLevel   int
	MultiLevel int
	// Negation of circuit.
	NegTwoLevel   int
	NegMultiLevel int
	// PaperTwoLevel / PaperNegTwoLevel are the paper's published two-level
	// areas (0 for the structural stand-ins t481 and cordic, whose
	// dimensions intentionally differ from the MCNC originals).
	PaperTwoLevel    int
	PaperNegTwoLevel int
}

// table1Paper holds Table I's published areas and the negated-circuit
// product counts back-derived from them.
var table1Paper = map[string]struct {
	two, negTwo int
	negProducts int
	structural  bool // stand-in: do not expect the published numbers
}{
	"rd53":   {544, 560, 32, false},
	"con1":   {198, 198, 9, false},
	"misex1": {570, 1590, 46, false},
	"bw":     {3300, 3564, 26, false},
	"sqrt8":  {1008, 792, 29, false},
	"rd84":   {6216, 7128, 293, false},
	"b12":    {2496, 2064, 34, false},
	"t481":   {16388, 12274, 360, true},
	"cordic": {45800, 59650, 1191, true},
}

// Table1 regenerates Table I. Exact circuits are negated by true
// complementation (+ minimization); profile circuits use a second profile
// with the paper's negated-circuit dimensions; the structural stand-ins
// (t481, cordic) use their analytic complements.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, c := range suite.Table1Circuits() {
		paper := table1Paper[c.Name]
		orig, neg, err := table1Covers(c, paper.negProducts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", c.Name, err)
		}
		row := Table1Row{Name: c.Name, Kind: c.Kind}
		if !paper.structural {
			row.PaperTwoLevel = paper.two
			row.PaperNegTwoLevel = paper.negTwo
		}
		row.TwoLevel = synth.TwoLevel(orig).Area
		row.NegTwoLevel = synth.TwoLevel(neg).Area
		nw, err := synth.SynthesizeMultiLevel(orig, synth.MultiLevelOptions{})
		if err != nil {
			return nil, err
		}
		row.MultiLevel = synth.MultiLevel(nw).Area
		nwNeg, err := synth.SynthesizeMultiLevel(neg, synth.MultiLevelOptions{})
		if err != nil {
			return nil, err
		}
		row.NegMultiLevel = synth.MultiLevel(nwNeg).Area
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Covers builds the original and negated covers for one benchmark.
func table1Covers(c suite.Circuit, negProducts int) (orig, neg *logic.Cover, err error) {
	switch c.Name {
	case "t481":
		return suite.T481Standin(), suite.T481StandinNeg(), nil
	case "cordic":
		return suite.CordicStandin(), suite.CordicStandinNeg(), nil
	}
	orig = c.Build()
	if c.Kind == suite.Exact {
		if c.Name == "sqrt8" {
			// sqrt8 is regenerated as raw minterms; Table I compares
			// minimized covers. Espresso found 38 products and our
			// minimizer finds a few more, which is the whole of sqrt8's
			// two-level area delta against the paper.
			orig = minimize.Minimize(orig, minimize.Options{MaxIterations: 2})
		}
		neg = minimize.Minimize(orig.ComplementAll(), minimize.Options{MaxIterations: 2})
		return orig, neg, nil
	}
	negCircuit := suite.Circuit{
		Name:     c.Name + "-neg",
		Kind:     suite.Profile,
		Inputs:   c.Inputs,
		Outputs:  c.Outputs,
		Products: negProducts,
		IR:       c.IR,
	}
	neg = suite.BuildProfileCircuit(negCircuit)
	return orig, neg, nil
}

// ---------------------------------------------------------------------------
// Table II: HBA vs EA success rate and runtime at 10% stuck-open defects.

// AlgoStats is one algorithm's column pair in Table II.
type AlgoStats struct {
	Psucc    float64
	MeanTime time.Duration
}

// Table2Row is one benchmark line of Table II.
type Table2Row struct {
	Name     string
	Inputs   int
	Outputs  int
	Products int
	Area     int
	IR       float64
	HBA      AlgoStats
	EA       AlgoStats
	// Paper columns for side-by-side reporting.
	PaperArea  int
	PaperIR    float64
	PaperPsHBA float64
	PaperPsEA  float64
}

// paperTable2 holds the published Psucc columns (fractions).
var paperTable2 = map[string][2]float64{
	"rd53": {0.98, 0.98}, "squar5": {1, 1}, "bw": {1, 1}, "inc": {1, 1},
	"misex1": {1, 1}, "sqrt8": {1, 1}, "sao2": {0.94, 0.97}, "rd73": {0.78, 0.92},
	"clip": {0.76, 0.79}, "rd84": {0.82, 0.89}, "ex1010": {1, 1}, "table3": {1, 1},
	"misex3c": {1, 1}, "exp5": {0.65, 0.80}, "apex4": {1, 1}, "alu4": {1, 1},
}

// Table2Options tunes the Monte Carlo study.
type Table2Options struct {
	// Samples per benchmark; zero means the paper's 200.
	Samples int
	// DefectRate is the stuck-open probability; zero means the paper's 0.10.
	DefectRate float64
	// Seed drives defect-map sampling.
	Seed int64
	// Only restricts the run to the named circuits (nil = all).
	Only []string
	// Engine, when set, runs the study's jobs (one monte-carlo-yield job
	// per circuit and algorithm) on the compilation engine, so the rows
	// fill in parallel across cores. When nil, the same jobs run one by one
	// through engine.Execute. Psucc columns are identical either way
	// because per-sample rng derivation depends only on the seed and
	// sample index.
	Engine *engine.Engine
}

func (o Table2Options) withDefaults() Table2Options {
	if o.Samples == 0 {
		o.Samples = montecarlo.DefaultSamples
	}
	if o.DefectRate == 0 {
		o.DefectRate = 0.10
	}
	return o
}

// Table2 regenerates Table II: for each benchmark, 200 defect maps at the
// given rate on the optimum-size crossbar, mapped with both HBA and EA;
// reports success rates and mean per-sample algorithm runtime.
func Table2(opt Table2Options) ([]Table2Row, error) {
	opt = opt.withDefaults()
	var (
		rows    []Table2Row
		names   []string
		layouts []*xbar.Layout
	)
	for _, c := range suite.Table2Circuits() {
		if len(opt.Only) > 0 && !contains(opt.Only, c.Name) {
			continue
		}
		cov := table2Cover(c)
		l, err := xbar.NewTwoLevel(cov)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", c.Name, err)
		}
		row := Table2Row{
			Name:      c.Name,
			Inputs:    cov.NumIn,
			Outputs:   cov.NumOut,
			Products:  cov.NumProducts(),
			Area:      l.Area(),
			IR:        l.InclusionRatio(),
			PaperArea: (c.Products + c.Outputs) * (2*c.Inputs + 2*c.Outputs),
			PaperIR:   c.IR,
		}
		if ps, ok := paperTable2[c.Name]; ok {
			row.PaperPsHBA, row.PaperPsEA = ps[0], ps[1]
		}
		rows = append(rows, row)
		names = append(names, c.Name)
		layouts = append(layouts, l)
	}
	cols, err := runPairs(opt.Engine, names, layouts, opt.DefectRate, opt.Samples, opt.Seed)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].HBA, rows[i].EA = cols[i][0], cols[i][1]
	}
	return rows, nil
}

// table2Cover builds the cover actually mapped in Table II. Exact circuits
// are regenerated as minterm lists and must be minimized first: the paper
// maps the espresso-minimized PLAs, whose don't-care positions are what
// keeps optimum-size mapping feasible at 10% defects (an all-literal minterm
// row dies whenever any input column pair is fully broken). Results are
// cached because the bench suite re-enters per iteration.
func table2Cover(c suite.Circuit) *logic.Cover {
	table2CoverMu.Lock()
	defer table2CoverMu.Unlock()
	if cov, ok := table2CoverCache[c.Name]; ok {
		return cov
	}
	cov := c.Build()
	if c.Kind == suite.Exact {
		cov = minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
	}
	table2CoverCache[c.Name] = cov
	return cov
}

var (
	table2CoverMu    sync.Mutex
	table2CoverCache = map[string]*logic.Cover{}
)

// runPairs runs one HBA and one EA monte-carlo-yield job per layout and
// returns each layout's HBA and EA columns: the batch behind Table II and
// the multi-level study. Each circuit's seed is the study seed offset by
// the length of its name.
func runPairs(e *engine.Engine, names []string, layouts []*xbar.Layout,
	rate float64, samples int, seed int64) ([][2]AlgoStats, error) {
	specs := make([]engine.JobSpec, 0, 2*len(layouts))
	for i, l := range layouts {
		base := engine.JobSpec{
			Kind:     engine.MonteCarloYield,
			Layout:   l, // synthesized once, shared by both algorithm jobs
			OpenRate: rate,
			Samples:  samples,
			Seed:     seed + int64(len(names[i])),
		}
		hba, ea := base, base
		hba.Algorithm, ea.Algorithm = "HBA", "EA"
		specs = append(specs, hba, ea)
	}
	results, err := runJobs(e, specs, func(i int) string {
		return fmt.Sprintf("%s (%s)", names[i/2], specs[i].Algorithm)
	})
	if err != nil {
		return nil, err
	}
	cols := make([][2]AlgoStats, len(layouts))
	for i, r := range results {
		cols[i/2][i%2] = AlgoStats{Psucc: r.Psucc, MeanTime: r.MeanTime}
	}
	return cols, nil
}

// runJobs runs a study's jobs and returns their results in spec order, or
// an error naming the first failed job by label. With an engine the jobs
// run on its worker pool, cache and dedup included. With nil each spec
// runs in turn through engine.Execute, the bare job body with no pool,
// cache, dedup or journal: the reference the engine path is tested
// against.
func runJobs(e *engine.Engine, specs []engine.JobSpec, label func(i int) string) ([]engine.JobResult, error) {
	ctx := context.TODO() // the studies' exported signatures take no context
	var results []engine.JobResult
	if e != nil {
		var err error
		if results, err = e.Run(ctx, specs); err != nil {
			return nil, err
		}
	} else {
		for _, s := range specs {
			results = append(results, engine.Execute(ctx, s))
		}
	}
	for i, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: %s: %s", label(i), r.Err)
		}
	}
	return results, nil
}

// ---------------------------------------------------------------------------
// Section VI: redundancy vs yield exploration (future-work direction).

// YieldPoint is the mapping success rate for one (spare rows, defect rate)
// configuration.
type YieldPoint struct {
	SpareRows  int
	DefectRate float64
	Psucc      float64
}

// Yield sweeps redundant spare rows against stuck-open defect rates for one
// circuit, quantifying the paper's Section VI claim that redundancy buys
// defect tolerance. It is YieldEngine without an engine.
func Yield(circuit string, spares []int, rates []float64, samples int, seed int64) ([]YieldPoint, error) {
	return YieldEngine(nil, circuit, spares, rates, samples, seed)
}

// YieldEngine runs the sweep as one HBA monte-carlo-yield job per (spare
// rows, defect rate) point: on e's worker pool, or one by one through
// engine.Execute when e is nil. Psucc values are the same either way (same
// seeds, same per-sample rng derivation); points come back in sweep order.
func YieldEngine(e *engine.Engine, circuit string, spares []int, rates []float64, samples int, seed int64) ([]YieldPoint, error) {
	c, ok := suite.ByName(circuit)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown circuit %q", circuit)
	}
	l, err := xbar.NewTwoLevel(c.Build())
	if err != nil {
		return nil, err
	}
	var specs []engine.JobSpec
	for _, spare := range spares {
		for _, rate := range rates {
			specs = append(specs, engine.JobSpec{
				Kind:      engine.MonteCarloYield,
				Layout:    l, // synthesized once, shared by every sweep point
				SpareRows: spare,
				OpenRate:  rate,
				Samples:   samples,
				Seed:      seed,
				Algorithm: "HBA",
			})
		}
	}
	results, err := runJobs(e, specs, func(i int) string {
		return fmt.Sprintf("yield point (%d, %.2f)", specs[i].SpareRows, specs[i].OpenRate)
	})
	if err != nil {
		return nil, err
	}
	points := make([]YieldPoint, len(results))
	for i, r := range results {
		points[i] = YieldPoint{SpareRows: specs[i].SpareRows, DefectRate: specs[i].OpenRate, Psucc: r.Psucc}
	}
	return points, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
