package memxbar

// This file is the benchmark harness of the reproduction: one bench per
// table and figure of the paper, plus micro-benches for the hot algorithm
// kernels. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// The printed experiment rows themselves come from cmd/experiments; these
// benches time the same code paths via internal/experiments.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/lfg"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/munkres"
	"repro/internal/randfunc"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

func fig3Bench() *logic.Cover {
	return logic.MustParseCover(8, 1,
		"1-------", "-1------", "--1-----", "---1----", "----1111")
}

// BenchmarkFig3TwoLevelSynthesis times the two-level layout construction of
// the running example (Fig. 3).
func BenchmarkFig3TwoLevelSynthesis(b *testing.B) {
	f := fig3Bench()
	for i := 0; i < b.N; i++ {
		if _, err := xbar.NewTwoLevel(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5MultiLevelSynthesis times factoring + NAND mapping + layout
// of the running example (Fig. 5).
func BenchmarkFig5MultiLevelSynthesis(b *testing.B) {
	f := fig3Bench()
	for i := 0; i < b.N; i++ {
		nw, err := synth.SynthesizeMultiLevel(f, synth.MultiLevelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xbar.NewMultiLevel(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Simulation times one full state-machine evaluation of the
// two-level fabric.
func BenchmarkFig3Simulation(b *testing.B) {
	l, err := xbar.NewTwoLevel(fig3Bench())
	if err != nil {
		b.Fatal(err)
	}
	x := []bool{true, false, true, false, true, true, true, true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Simulate(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6RandomArea times one Fig. 6 Monte Carlo slice: 50 random
// 8-input functions through both synthesis styles.
func BenchmarkFig6RandomArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6([]int{8}, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Synthesis times the full Table I regeneration (9
// benchmarks, both polarities, both design styles).
func BenchmarkTable1Synthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// table2Problem prepares one defect-mapping instance for a named benchmark.
func table2Problem(b *testing.B, name string, seed int64) *mapping.Problem {
	b.Helper()
	c, ok := suite.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	cov := c.Build()
	if c.Kind == suite.Exact {
		cov = minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
	}
	l, err := xbar.NewTwoLevel(cov)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dm, err := defect.Generate(l.Rows, l.Cols, defect.Params{POpen: 0.10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := mapping.NewProblem(l, dm)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// table2BenchSet is a spread of Table II circuits from easiest to hardest.
var table2BenchSet = []string{"rd53", "misex1", "sqrt8", "sao2", "rd73", "clip", "rd84", "ex1010", "exp5", "alu4"}

// BenchmarkTable2HBA times the hybrid algorithm per benchmark at the
// paper's 10% stuck-open rate (Table II HBA runtime column), at 0
// allocs/op. One op is one full HBAScratch call on an unchanged defect map
// and a warm scratch: every pair test the call needs is made again, so the
// number is what a trial's mapping costs without the regeneration that
// BenchmarkYield200 and BenchmarkMonteCarloSample add.
func BenchmarkTable2HBA(b *testing.B) {
	for _, name := range table2BenchSet {
		b.Run(name, func(b *testing.B) {
			p := table2Problem(b, name, 1)
			scratch := mapping.NewScratch()
			mapping.HBAScratch(p, scratch) // warm the buffers and bitsets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mapping.HBAScratch(p, scratch)
			}
		})
	}
}

// BenchmarkTable2EA times the exact algorithm per benchmark (Table II EA
// runtime column); the HBA/EA ratio is the paper's headline runtime claim.
// Same protocol as BenchmarkTable2HBA: one full ExactScratch call, seed and
// candidate fills included, on an unchanged map and a warm scratch.
func BenchmarkTable2EA(b *testing.B) {
	for _, name := range table2BenchSet {
		b.Run(name, func(b *testing.B) {
			p := table2Problem(b, name, 1)
			scratch := mapping.NewScratch()
			mapping.ExactScratch(p, scratch) // warm the buffers and bitsets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mapping.ExactScratch(p, scratch)
			}
		})
	}
}

// BenchmarkTable2MonteCarlo times a full small-sample Table II row
// (defect generation + both algorithms), the per-row cost of the study.
func BenchmarkTable2MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.Table2Options{
			Samples: 10, Seed: int64(i), Only: []string{"rd53"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Example times the full Figs. 7/8 walkthrough instance.
func BenchmarkFig8Example(b *testing.B) {
	f := logic.MustParseCover(3, 2, "11- 10", "-01 10", "0-0 01", "-11 01")
	l, err := xbar.NewTwoLevel(f)
	if err != nil {
		b.Fatal(err)
	}
	dm := defect.NewMap(6, 10)
	for r, s := range []string{
		"1010111101", "1111111111", "0011111111",
		"1011011111", "1101111111", "1110111011",
	} {
		for c, ch := range s {
			if ch == '0' {
				dm.Set(r, c, defect.StuckOpen)
			}
		}
	}
	p, err := mapping.NewProblem(l, dm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mapping.HBA(p).Valid {
			b.Fatal("Fig. 8 instance must map")
		}
	}
}

// BenchmarkHBAMap times one hybrid-algorithm mapping attempt with reusable
// scratch buffers on the rd84 Table II instance; allocs/op must stay 0 in
// steady state (the scratch grows once, then every attempt reuses it). One
// op is one full call on an unchanged map, every pair test included;
// BenchmarkYield200 and BenchmarkMonteCarloSample add the regeneration.
func BenchmarkHBAMap(b *testing.B) {
	p := table2Problem(b, "rd84", 1)
	scratch := mapping.NewScratch()
	mapping.HBAScratch(p, scratch) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapping.HBAScratch(p, scratch)
	}
}

// BenchmarkYield200 times one steady-state Monte Carlo yield trial exactly
// as the Table II / Section VI loops run it: the harness's source is
// reseeded, the worker's preallocated defect map is regenerated in place
// and HBA runs on reusable scratch, cycling through a 200-sample seed
// schedule. The headline contract is 0 allocs/op — the trial loop never
// touches the garbage collector.
func BenchmarkYield200(b *testing.B) {
	c, ok := suite.ByName("rd53")
	if !ok {
		b.Fatal("rd53 missing")
	}
	l, err := xbar.NewTwoLevel(c.Build())
	if err != nil {
		b.Fatal(err)
	}
	dm := defect.NewMap(l.Rows+2, l.Cols)
	p, err := mapping.NewProblem(l, dm)
	if err != nil {
		b.Fatal(err)
	}
	scratch := mapping.NewScratch()
	params := defect.Params{POpen: 0.10}
	src := lfg.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(montecarlo.SampleSeed(2018, i%200))
		if err := dm.Regenerate(params, src); err != nil {
			b.Fatal(err)
		}
		mapping.HBAScratch(p, scratch)
	}
}

// alu4Layout is Table II's largest fabric, 583 rows × 44 columns.
func alu4Layout(b *testing.B) *xbar.Layout {
	b.Helper()
	c, ok := suite.ByName("alu4")
	if !ok {
		b.Fatal("alu4 missing")
	}
	l, err := xbar.NewTwoLevel(c.Build())
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkRegenerate times one in-place resample of a Table II fabric
// (alu4) at the paper's 10% stuck-open rate from the harness's source.
// 0 allocs/op.
func BenchmarkRegenerate(b *testing.B) {
	l := alu4Layout(b)
	dm := defect.NewMap(l.Rows, l.Cols)
	params := defect.Params{POpen: 0.10}
	src := lfg.New(2018)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dm.Regenerate(params, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegenerateClosed is BenchmarkRegenerate with stuck-closed
// defects too (POpen 0.10, PClosed 0.01), so every cell is compared with
// two thresholds and the closed-line caches fill. 0 allocs/op.
func BenchmarkRegenerateClosed(b *testing.B) {
	l := alu4Layout(b)
	dm := defect.NewMap(l.Rows, l.Cols)
	params := defect.Params{POpen: 0.10, PClosed: 0.01}
	src := lfg.New(2018)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dm.Regenerate(params, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloSample times one Monte Carlo sample as the harness
// runs it for a monte-carlo-yield job: montecarlo.Run reseeds the source,
// and the job's trial regenerates the fabric and maps it with HBA. The
// circuit is ex1010 with two spare rows, a Section VI sweep point that is
// also a Table II circuit. One op is one sample of a b.N-sample batch.
func BenchmarkMonteCarloSample(b *testing.B) {
	c, ok := suite.ByName("ex1010")
	if !ok {
		b.Fatal("ex1010 missing")
	}
	l, err := xbar.NewTwoLevel(c.Build())
	if err != nil {
		b.Fatal(err)
	}
	trial := engine.MappingTrial(l, 2, defect.Params{POpen: 0.10}, mapping.HBAScratch)
	// One sample first, so the trial's scratch has grown before timing.
	if _, err := montecarlo.Run(montecarlo.Options{Samples: 1, Seed: 2018}, trial); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := montecarlo.Run(montecarlo.Options{Samples: b.N, Seed: 2018}, trial); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonteCarloSampleWide is BenchmarkMonteCarloSample on exp5 at
// 10% with two spare rows: 142 columns, so every row spans three words and
// HBA's scans take the multi-word first-fit path, and 63 output rows, so
// the output matching is large. 0 allocs/op.
func BenchmarkMonteCarloSampleWide(b *testing.B) {
	c, ok := suite.ByName("exp5")
	if !ok {
		b.Fatal("exp5 missing")
	}
	l, err := xbar.NewTwoLevel(c.Build())
	if err != nil {
		b.Fatal(err)
	}
	trial := engine.MappingTrial(l, 2, defect.Params{POpen: 0.10}, mapping.HBAScratch)
	if _, err := montecarlo.Run(montecarlo.Options{Samples: 1, Seed: 2018}, trial); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := montecarlo.Run(montecarlo.Options{Samples: b.N, Seed: 2018}, trial); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkYieldSweep times one Section VI redundancy/yield point.
func BenchmarkYieldSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Yield("rd53", []int{2}, []float64{0.10}, 20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLevelMapping times the future-work extension: defect
// mapping of a multi-level layout.
func BenchmarkMultiLevelMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiLevelMapping(experiments.MLOptions{
			Samples: 5, Seed: int64(i), Circuits: []string{"rd53"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVariants times one ablation sweep across the HBA
// design-choice variants.
func BenchmarkAblationVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation("rd53", 10, 0.10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedTolerance times one stuck-closed tolerance point of the
// column-permutation extension.
func BenchmarkClosedTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClosedTolerance("rd53",
			[]float64{0.005}, []int{2}, []int{2}, 0.05, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultCampaign times the exhaustive single-fault injection of the
// running example's two-level design.
func BenchmarkFaultCampaign(b *testing.B) {
	f := fig3Bench()
	l, err := xbar.NewTwoLevel(f)
	if err != nil {
		b.Fatal(err)
	}
	inputs := xbar.AllAssignments(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultsim.Run(l, func(x []bool) []bool { return f.Eval(x) },
			faultsim.Options{Inputs: inputs, InjectOpen: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// columnAwareBenchInstance builds the fabric-with-spares instance shared by
// the column-aware benches.
func columnAwareBenchInstance(b *testing.B) (*xbar.Layout, *defect.Map, mapping.FabricSpec) {
	b.Helper()
	f := logic.MustParseCover(3, 2, "11- 10", "-01 10", "0-0 01", "-11 01")
	l, err := xbar.NewTwoLevel(f)
	if err != nil {
		b.Fatal(err)
	}
	spec := mapping.SpecFor(l)
	spec.InputPairs += 2
	spec.OutputPairs++
	rng := rand.New(rand.NewSource(7))
	dm, err := defect.Generate(l.Rows+1, spec.Cols(), defect.Params{POpen: 0.15, PClosed: 0.01}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return l, dm, spec
}

// BenchmarkColumnAware times the joint column+row mapping search on a
// fabric with spares and mixed defects, allocating fresh per attempt.
func BenchmarkColumnAware(b *testing.B) {
	l, dm, spec := columnAwareBenchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.ColumnAware(l, dm, spec, mapping.ColumnOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnAwareScratch is the same search on a reused ColumnScratch:
// the whole retry loop — greedy ranking over the transposed column views,
// per-attempt defect projection, row mapping, perturbation — must report
// 0 allocs/op in steady state, the column-aware counterpart of the
// BenchmarkYield200 contract. The fabric map never changes between
// iterations, so the version check skips the transpose every time; every
// attempt's row mapping is one full HBAScratch call. A fresh map per trial
// costs a transpose more.
func BenchmarkColumnAwareScratch(b *testing.B) {
	l, dm, spec := columnAwareBenchInstance(b)
	scratch := mapping.NewColumnScratch()
	for i := 0; i < 4; i++ { // warm the scratch buffers
		if _, err := mapping.ColumnAwareScratch(l, dm, spec, mapping.ColumnOptions{Seed: int64(i)}, scratch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.ColumnAwareScratch(l, dm, spec, mapping.ColumnOptions{Seed: int64(i)}, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// engineMixedBatch builds a 64-job mixed workload: synthesis of both
// styles, single defect mappings, and Monte Carlo yield batches, all with
// distinct identities so no job dedupes against another.
func engineMixedBatch() []engine.JobSpec {
	var specs []engine.JobSpec
	benches := []string{"rd53", "squar5", "misex1", "sqrt8", "inc", "bw", "rd73", "sao2"}
	for i := 0; i < 8; i++ {
		specs = append(specs,
			engine.JobSpec{Kind: engine.SynthTwoLevel, Benchmark: benches[i]},
			engine.JobSpec{Kind: engine.SynthMultiLevel, Benchmark: benches[i%4], MaxFanin: 2 + i})
	}
	for i := 0; i < 16; i++ {
		specs = append(specs, engine.JobSpec{
			Kind: engine.MapHBA, Benchmark: "rd53", Minimize: true,
			OpenRate: 0.10, Seed: int64(i),
		})
	}
	for i := 0; i < 16; i++ {
		algo := "HBA"
		if i%2 == 1 {
			algo = "EA"
		}
		specs = append(specs, engine.JobSpec{
			Kind: engine.MonteCarloYield, Benchmark: "rd53",
			OpenRate: 0.10, Samples: 20, Seed: int64(i), Algorithm: algo,
		})
	}
	for i := 0; i < 16; i++ {
		specs = append(specs, engine.JobSpec{
			Kind: engine.MonteCarloYield, Benchmark: "misex1",
			OpenRate: 0.10, Samples: 20, Seed: int64(i), Algorithm: "HBA",
		})
	}
	return specs
}

// BenchmarkEngineMixedBatch64 is the engine's headline number: a 64-job
// mixed batch through a single-worker pool versus a full-width pool. On a
// machine with >= 4 cores the parallel variant completes the batch at least
// 2x faster; the result cache is disabled so both variants do all the work.
func BenchmarkEngineMixedBatch64(b *testing.B) {
	specs := engineMixedBatch()
	if len(specs) != 64 {
		b.Fatalf("batch has %d jobs, want 64", len(specs))
	}
	run := func(b *testing.B, workers int) {
		e := engine.New(engine.Options{Workers: workers, CacheSize: -1})
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := e.Run(context.Background(), specs)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Err != "" {
					b.Fatalf("job %s: %s", r.ID, r.Err)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// ---------------------------------------------------------------------------
// Micro-benches for the algorithm kernels.

// BenchmarkMunkres times the reference assignment oracle at Table II scale
// (a 300x300 binary matching matrix). Production mapping solves this step
// by bipartite matching; mapping.BenchmarkBipartiteMatch runs the same
// instance, so the snapshot records both.
func BenchmarkMunkres(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	forbidden := make([][]bool, n)
	for i := range forbidden {
		forbidden[i] = make([]bool, n)
		for j := range forbidden[i] {
			forbidden[i][j] = rng.Float64() < 0.4
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := munkres.SolveBinary(forbidden); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplement times unate-recursive complementation on rd73.
func BenchmarkComplement(b *testing.B) {
	c, _ := suite.ByName("rd73")
	cov := c.Build().OutputCover(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov.Complement()
	}
}

// BenchmarkMinimize times the espresso-style loop on sqrt8's minterms.
func BenchmarkMinimize(b *testing.B) {
	c, _ := suite.ByName("sqrt8")
	cov := c.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minimize.Minimize(cov, minimize.Options{MaxIterations: 2})
	}
}

// BenchmarkRandFunc times random function generation (the Fig. 6 workload
// generator).
func BenchmarkRandFunc(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		if _, err := randfunc.Generate(randfunc.Params{Inputs: 12}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefectGenerate times defect-map sampling at alu4 scale, map
// allocation included, from the harness's source.
func BenchmarkDefectGenerate(b *testing.B) {
	src := lfg.New(11)
	for i := 0; i < b.N; i++ {
		if _, err := defect.Generate(583, 44, defect.Params{POpen: 0.10}, src); err != nil {
			b.Fatal(err)
		}
	}
}
