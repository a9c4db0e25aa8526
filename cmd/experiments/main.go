// Command experiments regenerates every table and figure of the paper:
//
//	experiments -only fig3    # Figs. 3/5: the running example, both styles
//	experiments -only fig6    # Fig. 6: Monte Carlo area comparison
//	experiments -only table1  # Table I: benchmark areas, original + negation
//	experiments -only fig8    # Figs. 7/8: defect-tolerant mapping walkthrough
//	experiments -only table2  # Table II: HBA vs EA Psucc and runtime
//	experiments -only yield   # Section VI: redundancy vs yield sweep
//	experiments               # everything
//
// Use -samples to trade fidelity for speed (the paper uses 200) and -csv to
// dump figure series as CSV files into the given directory.
//
// The mapping-yield studies (table2, yield, ml) run as compilation engine
// jobs, one per (circuit, algorithm) or sweep point, scheduled across
// -workers cores. Psucc does not depend on the worker count: every
// sample's rng comes from the seed and sample index alone, and the
// internal/experiments tests check the engine against the same jobs run
// one by one through engine.Execute.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/xbar"
)

func main() {
	only := flag.String("only", "", "run a single experiment: fig3, fig6, table1, fig8, table2, yield")
	samples := flag.Int("samples", 200, "Monte Carlo sample size (paper: 200)")
	seed := flag.Int64("seed", 2018, "random seed")
	rate := flag.Float64("rate", 0.10, "stuck-open defect rate for table2 (paper: 0.10)")
	csvDir := flag.String("csv", "", "directory to write figure CSV series into")
	workers := flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	eng := engine.New(engine.Options{Workers: *workers})
	defer eng.Close()

	run := func(name string) bool { return *only == "" || *only == name }
	ok := true
	if run("fig3") {
		ok = fig3() && ok
	}
	if run("fig6") {
		ok = fig6(*samples, *seed, *csvDir) && ok
	}
	if run("table1") {
		ok = table1() && ok
	}
	if run("fig8") {
		ok = fig8() && ok
	}
	if run("table2") {
		ok = table2(*samples, *rate, *seed, eng) && ok
	}
	if run("yield") {
		ok = yield(*samples, *seed, *csvDir, eng) && ok
	}
	if run("ml") {
		ok = mlMapping(*samples, *rate, *seed, eng) && ok
	}
	if run("ablation") {
		ok = ablation(*samples, *seed) && ok
	}
	if run("closed") {
		ok = closedTolerance(*samples, *seed) && ok
	}
	if run("faults") {
		ok = faultCampaign() && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// faultCampaign injects every single stuck fault into both design styles of
// the running example and cross-checks the criticality fractions against
// the inclusion ratio.
func faultCampaign() bool {
	fmt.Println("== Extension: exhaustive single-fault injection (Fig. 3/5 function) ==")
	f := logic.MustParseCover(8, 1,
		"1-------", "-1------", "--1-----", "---1----", "----1111")
	tb := report.NewTable("", "design", "crosspoints", "faults", "open critical", "closed critical", "IR")
	twoL, err := xbar.NewTwoLevel(f)
	if err != nil {
		return fail(err)
	}
	nw, err := synth.SynthesizeMultiLevel(f, synth.MultiLevelOptions{})
	if err != nil {
		return fail(err)
	}
	multiL, err := xbar.NewMultiLevel(nw)
	if err != nil {
		return fail(err)
	}
	for _, d := range []struct {
		name string
		l    *xbar.Layout
	}{{"two-level", twoL}, {"multi-level", multiL}} {
		res, err := faultsim.Run(d.l, func(x []bool) []bool { return f.Eval(x) }, faultsim.Options{
			Inputs: xbar.AllAssignments(8),
		})
		if err != nil {
			return fail(err)
		}
		tb.AddRow(d.name, d.l.Area(), res.Injected,
			fmt.Sprintf("%.1f%%", 100*res.OpenCriticalFraction()),
			fmt.Sprintf("%.1f%%", 100*res.ClosedCriticalFraction()),
			fmt.Sprintf("%.1f%%", 100*d.l.InclusionRatio()))
	}
	fmt.Print(tb.String())
	fmt.Println("(open-fault criticality equals the inclusion ratio exactly: IR is fault sensitivity)")
	fmt.Println()
	return true
}

// closedTolerance runs the stuck-closed tolerance extension: column
// permutation plus spare pairs against closed defect rates.
func closedTolerance(samples int, seed int64) bool {
	fmt.Println("== Extension: stuck-closed tolerance via column permutation (rd53, 5% open) ==")
	points, err := experiments.ClosedTolerance("rd53",
		[]float64{0.002, 0.005, 0.01},
		[]int{0, 2, 4, 8}, []int{0, 2, 4, 8},
		0.05, samples, seed)
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "spare pairs", "spare rows", "closed rate",
		"fixed-wiring Psucc", "column-aware Psucc")
	for _, pt := range points {
		tb.AddRow(pt.SparePairs, pt.SpareRows, fmt.Sprintf("%.1f%%", pt.ClosedRate*100),
			fmt.Sprintf("%.0f%%", 100*pt.FixedPsucc), fmt.Sprintf("%.0f%%", 100*pt.ColumnPsucc))
	}
	fmt.Print(tb.String())
	fmt.Println()
	return true
}

// mlMapping runs the multi-level defect-mapping extension (the future-work
// integration of Section VI).
func mlMapping(samples int, rate float64, seed int64, eng *engine.Engine) bool {
	fmt.Printf("== Extension: defect-tolerant mapping of multi-level designs (%.0f%% open) ==\n", rate*100)
	rows, err := experiments.MultiLevelMapping(experiments.MLOptions{
		Samples: samples, DefectRate: rate, Seed: seed, Engine: eng,
	})
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "bench", "gates", "wires", "geometry", "area", "IR",
		"HBA Psucc", "HBA time", "EA Psucc", "EA time")
	for _, r := range rows {
		tb.AddRow(r.Name, r.Gates, r.Wires, fmt.Sprintf("%dx%d", r.Rows, r.Cols), r.Area,
			fmt.Sprintf("%.0f%%", 100*r.IR),
			fmt.Sprintf("%.0f%%", 100*r.HBA.Psucc), r.HBA.MeanTime.Round(time.Microsecond),
			fmt.Sprintf("%.0f%%", 100*r.EA.Psucc), r.EA.MeanTime.Round(time.Microsecond))
	}
	fmt.Print(tb.String())
	fmt.Println()
	return true
}

// ablation compares HBA design-choice variants.
func ablation(samples int, seed int64) bool {
	fmt.Println("== Extension: HBA design-choice ablation ==")
	for _, circuit := range []string{"rd53", "rd84"} {
		for _, rate := range []float64{0.10, 0.15} {
			rows, err := experiments.Ablation(circuit, samples, rate, seed)
			if err != nil {
				return fail(err)
			}
			tb := report.NewTable(fmt.Sprintf("%s at %.0f%% stuck-open:", circuit, rate*100),
				"variant", "Psucc", "mean time")
			for _, r := range rows {
				tb.AddRow(r.Variant, fmt.Sprintf("%.0f%%", 100*r.Psucc), r.Mean.Round(time.Microsecond))
			}
			fmt.Print(tb.String())
		}
	}
	fmt.Println()
	return true
}

func fail(err error) bool {
	fmt.Fprintln(os.Stderr, "error:", err)
	return false
}

// fig3 reproduces the running example of Figs. 3 and 5.
func fig3() bool {
	f := logic.MustParseCover(8, 1,
		"1-------", "-1------", "--1-----", "---1----", "----1111")
	two, err := xbar.NewTwoLevel(f)
	if err != nil {
		return fail(err)
	}
	nw, err := synth.SynthesizeMultiLevel(f, synth.MultiLevelOptions{})
	if err != nil {
		return fail(err)
	}
	multi, err := xbar.NewMultiLevel(nw)
	if err != nil {
		return fail(err)
	}
	fmt.Println("== Figs. 3/5: f = x1+x2+x3+x4+x5x6x7x8 ==")
	fmt.Printf("two-level:   %dx%d = %d (paper geometry 126 counts one extra housekeeping row)\n",
		two.Rows, two.Cols, two.Area())
	fmt.Print(two.Render())
	fmt.Printf("multi-level: %dx%d = %d (paper: 3x19)\n", multi.Rows, multi.Cols, multi.Area())
	fmt.Print(multi.Render())
	fmt.Println()
	return true
}

// fig6 reproduces the Monte Carlo area study.
func fig6(samples int, seed int64, csvDir string) bool {
	fmt.Println("== Fig. 6: two-level vs multi-level area on random functions ==")
	sizes := []int{8, 9, 10, 11, 12, 13, 14, 15}
	series, err := experiments.Fig6(sizes, samples, seed)
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "inputs", "samples", "success rate (multi < two)", "paper")
	paper := map[int]string{8: "65%", 9: "60%", 10: "54%", 15: "33%"}
	for _, s := range series {
		p := paper[s.Inputs]
		if p == "" {
			p = "-"
		}
		tb.AddRow(s.Inputs, len(s.Samples), fmt.Sprintf("%.0f%%", 100*s.SuccessRate), p)
	}
	fmt.Print(tb.String())
	for _, s := range series {
		if s.Inputs != 8 && s.Inputs != 15 {
			continue
		}
		two := make([]float64, len(s.Samples))
		multi := make([]float64, len(s.Samples))
		for i, smp := range s.Samples {
			two[i], multi[i] = float64(smp.TwoLevelArea), float64(smp.MultiLevelArea)
		}
		fmt.Printf("n=%-2d two-level   %s\n", s.Inputs, report.Sparkline(two))
		fmt.Printf("n=%-2d multi-level %s\n", s.Inputs, report.Sparkline(multi))
	}
	if csvDir != "" {
		for _, s := range series {
			rows := make([][]float64, len(s.Samples))
			for i, smp := range s.Samples {
				rows[i] = []float64{float64(i), float64(smp.Products),
					float64(smp.TwoLevelArea), float64(smp.MultiLevelArea)}
			}
			path := filepath.Join(csvDir, fmt.Sprintf("fig6_n%d.csv", s.Inputs))
			if err := writeCSV(path, []string{"sample", "products", "two_level", "multi_level"}, rows); err != nil {
				return fail(err)
			}
			fmt.Println("wrote", path)
		}
	}
	fmt.Println()
	return true
}

// table1 reproduces the benchmark area comparison.
func table1() bool {
	fmt.Println("== Table I: two-level and multi-level area, original and negation ==")
	rows, err := experiments.Table1()
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "bench", "kind",
		"two-level", "multi-level", "neg two-level", "neg multi-level",
		"paper 2L", "paper neg 2L")
	for _, r := range rows {
		p1, p2 := "-", "-"
		if r.PaperTwoLevel > 0 {
			p1 = fmt.Sprint(r.PaperTwoLevel)
			p2 = fmt.Sprint(r.PaperNegTwoLevel)
		}
		tb.AddRow(r.Name, r.Kind.String(), r.TwoLevel, r.MultiLevel, r.NegTwoLevel, r.NegMultiLevel, p1, p2)
	}
	fmt.Print(tb.String())
	fmt.Println()
	return true
}

// fig8 walks the defect-tolerance example of Figs. 7/8.
func fig8() bool {
	fmt.Println("== Figs. 7/8: defect-tolerant mapping walkthrough ==")
	f := logic.MustParseCover(3, 2, "11- 10", "-01 10", "0-0 01", "-11 01")
	l, err := xbar.NewTwoLevel(f)
	if err != nil {
		return fail(err)
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
		return fail(err)
	}
	fmt.Println("function matrix (Fig. 8a):")
	fmt.Print(l.Render())
	fmt.Println("crossbar defect map (Fig. 8b; o = stuck-open):")
	fmt.Print(dm.String())
	fmt.Println("matching matrix (Fig. 8c; 0 = compatible):")
	fmt.Print(p.RenderMatchingMatrix())
	naive := mapping.Naive(p)
	fmt.Printf("naive mapping (Fig. 7a): valid=%v (%s)\n", naive.Valid, naive.Reason)
	hba := mapping.HBA(p)
	fmt.Printf("HBA mapping  (Fig. 7b): valid=%v assignment=%v\n", hba.Valid, hba.Assignment)
	fmt.Println()
	return hba.Valid && !naive.Valid
}

// table2 reproduces the HBA vs EA study.
func table2(samples int, rate float64, seed int64, eng *engine.Engine) bool {
	fmt.Printf("== Table II: HBA vs EA, %d samples, %.0f%% stuck-open ==\n", samples, rate*100)
	start := time.Now()
	rows, err := experiments.Table2(experiments.Table2Options{
		Samples: samples, DefectRate: rate, Seed: seed, Engine: eng,
	})
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "bench", "I", "O", "P", "area", "IR",
		"HBA Psucc", "HBA time", "EA Psucc", "EA time", "paper HBA/EA")
	for _, r := range rows {
		tb.AddRow(r.Name, r.Inputs, r.Outputs, r.Products, r.Area,
			fmt.Sprintf("%.0f%%", 100*r.IR),
			fmt.Sprintf("%.0f%%", 100*r.HBA.Psucc), r.HBA.MeanTime.Round(time.Microsecond),
			fmt.Sprintf("%.0f%%", 100*r.EA.Psucc), r.EA.MeanTime.Round(time.Microsecond),
			fmt.Sprintf("%.0f%%/%.0f%%", 100*r.PaperPsHBA, 100*r.PaperPsEA))
	}
	fmt.Print(tb.String())
	fmt.Printf("(total %v)\n\n", time.Since(start).Round(time.Millisecond))
	return true
}

// yield sweeps redundancy against defect rate (Section VI).
func yield(samples int, seed int64, csvDir string, eng *engine.Engine) bool {
	fmt.Println("== Section VI: redundancy vs yield (HBA on rd53) ==")
	spares := []int{0, 1, 2, 4, 8}
	rates := []float64{0.05, 0.10, 0.15, 0.20}
	points, err := experiments.YieldEngine(eng, "rd53", spares, rates, samples, seed)
	if err != nil {
		return fail(err)
	}
	tb := report.NewTable("", "spare rows", "defect rate", "Psucc")
	var rows [][]float64
	for _, pt := range points {
		tb.AddRow(pt.SpareRows, fmt.Sprintf("%.0f%%", pt.DefectRate*100), fmt.Sprintf("%.0f%%", pt.Psucc*100))
		rows = append(rows, []float64{float64(pt.SpareRows), pt.DefectRate, pt.Psucc})
	}
	fmt.Print(tb.String())
	if csvDir != "" {
		path := filepath.Join(csvDir, "yield.csv")
		if err := writeCSV(path, []string{"spare_rows", "defect_rate", "psucc"}, rows); err != nil {
			return fail(err)
		}
		fmt.Println("wrote", path)
	}
	fmt.Println()
	return true
}

func writeCSV(path string, headers []string, rows [][]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	if err := report.CSV(&b, headers, rows); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
