// Command xbarbench runs the repository's benchmark tier and writes a
// machine-readable JSON snapshot — ns/op, B/op, and allocs/op per benchmark
// — so the performance trajectory across PRs lives in version control
// (BENCH_<tag>.json) instead of in transient terminal output.
//
// It shells out to `go test -bench` with -benchmem, mirrors the raw output
// to stderr, and parses the standard benchmark result lines, qualifying each
// name with its package (several packages define benches with related
// names).
//
//	go run ./cmd/xbarbench -out BENCH_pr4.json
//	make bench-json
//
// With -compare it doubles as a regression gate: after benching, the fresh
// snapshot is diffed against a committed baseline and the process exits
// non-zero when the geometric-mean ns/op ratio drifts past -max-drift
// (default +10%). -diff compares two existing snapshots without running
// anything:
//
//	go run ./cmd/xbarbench -out BENCH_new.json -compare BENCH_pr5.json
//	go run ./cmd/xbarbench -diff BENCH_pr5.json BENCH_new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultBench is the tier benchmark set: the kernel micro-benches, the
// zero-alloc loop contracts, and the per-circuit mapping benches. Override
// with -bench '.' for everything.
const defaultBench = "BenchmarkRowMatch$|BenchmarkBatchRowMatch|BenchmarkMatchRowKernel|" +
	"BenchmarkTranspose|BenchmarkYield200|BenchmarkRegenerate$|BenchmarkRegenerateClosed|BenchmarkMonteCarloSample$|BenchmarkMonteCarloSampleWide|" +
	"BenchmarkHBAMap|BenchmarkColumnAware$|" +
	"BenchmarkColumnAwareScratch|BenchmarkTable2HBA|BenchmarkTable2EA|" +
	"BenchmarkMunkres|BenchmarkBipartiteMatch|BenchmarkDefectGenerate|BenchmarkFig8Example|" +
	"BenchmarkJournalAppend|BenchmarkJournalReplay"

// Result is one parsed benchmark line.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is the file format of BENCH_<tag>.json. When the run was gated
// with -compare, the baseline tag and the computed geomean ns/op ratio are
// embedded so the snapshot records what it was measured against — the
// trajectory reads directly out of the committed files.
type Snapshot struct {
	GoVersion      string   `json:"go_version"`
	GOOS           string   `json:"goos"`
	GOARCH         string   `json:"goarch"`
	CPUs           int      `json:"cpus"`
	Benchtime      string   `json:"benchtime"`
	Bench          string   `json:"bench"`
	Generated      string   `json:"generated"`
	Baseline       string   `json:"baseline,omitempty"`
	GeomeanNsRatio float64  `json:"geomean_ns_ratio,omitempty"`
	Benchmarks     []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON path (make bench-json passes the tagged name from the Makefile's BENCH_TAG)")
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "0.5s", "go test -benchtime (e.g. 0.5s, 100x)")
	pkgs := flag.String("packages", "./...", "comma-separated package patterns to bench")
	baseline := flag.String("compare", "", "after benching, gate against this baseline snapshot (exit 1 past -max-drift or -max-alloc-growth)")
	maxDrift := flag.Float64("max-drift", 0.10, "allowed geomean ns/op drift vs the -compare baseline (0.10 = +10%)")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 0, "allowed absolute allocs/op growth per benchmark vs the baseline (0 = any increase fails)")
	diff := flag.Bool("diff", false, "compare two existing snapshots (args: old.json new.json) without benching")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff wants exactly two snapshot paths, got %d", flag.NArg()))
		}
		old, err := loadSnapshot(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := loadSnapshot(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !gate(compare(old, cur), *maxDrift, *maxAllocGrowth, os.Stderr) {
			os.Exit(1)
		}
		return
	}

	args := []string{"test", "-run=XXX", "-bench", *bench, "-benchmem", "-benchtime", *benchtime}
	args = append(args, strings.Split(*pkgs, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	results, perr := parse(io.TeeReader(stdout, os.Stderr))
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test -bench failed: %w", err))
	}
	if perr != nil {
		fatal(perr)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q", *bench))
	}
	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Benchtime:  *benchtime,
		Bench:      *bench,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: results,
	}

	// Compute the baseline comparison before writing so the snapshot itself
	// records the baseline tag and geomean; the file is written even when the
	// gate fails, so a failed CI run still leaves the evidence behind.
	var c comparison
	if *baseline != "" {
		old, err := loadSnapshot(*baseline)
		if err != nil {
			fatal(err)
		}
		c = compare(old, snap)
		snap.Baseline = *baseline
		snap.GeomeanNsRatio = c.geomean
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xbarbench: wrote %d benchmarks to %s\n", len(results), *out)

	if *baseline != "" && !gate(c, *maxDrift, *maxAllocGrowth, os.Stderr) {
		os.Exit(1)
	}
}

// parse reads `go test -bench` output, tracking the current package from the
// "pkg:" header lines and collecting every "Benchmark..." result line.
func parse(r io.Reader) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseLine(pkg, line)
		if err != nil {
			return nil, err
		}
		if ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// parseLine parses one result line of the form
//
//	BenchmarkName-P  iterations  12.3 ns/op  45 B/op  6 allocs/op
//
// Lines without an iteration count (e.g. a bare benchmark name printed
// before its -v sub-benches) report ok=false.
func parseLine(pkg, line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false, nil
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	res := Result{Package: pkg, Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value in %q: %v", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, true, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xbarbench:", err)
	os.Exit(1)
}
