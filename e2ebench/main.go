// Command e2ebench is memxbar's end-to-end benchmark. It runs one of two
// seeded workloads — the paper's Monte Carlo study in process
// (paper-repro), and the xbargateway over two members with hot caches
// (gateway-hot) — checks every output, and prints the end-to-end metrics.
// With --trace 1 it instead makes a traced run of the same inputs and prints
// per-layer metrics that say which layer spent the time.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	sh e2ebench/run.sh --workload gateway-hot --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory is
// the metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	paperRepro = "paper-repro"
	gatewayHot = "gateway-hot"
)

// buildDir is where run.sh builds and where runs keep scratch files and
// span dumps; the repository's .gitignore excludes it.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's shared state.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	nproc    int
	dir      string    // scratch directory (journals), removed at exit
	out      io.Writer // human-readable report lines
	fleets   int       // gateway-hot fleets built so far (names their journal directories)

	attempted, failed atomic.Int64

	mu       sync.Mutex
	problems []string // failed output checks
	metrics  map[string]metric
	spans    *recorder // the benchmark's own spans; nil on untraced runs
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-repro or gateway-hot")
	seed := fs.Int64("seed", 1, "input seed: one seed always gives the same inputs")
	seconds := fs.Float64("seconds", 45, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	regen := fs.String("regen-expected", "", "recompute "+expectedPath+" for seeds FROM-TO and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The program logs through log and slog; the report owns stdout and
	// the benchmark's own diagnostics own stderr.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	log.SetOutput(io.Discard)
	if *regen != "" {
		if err := regenExpected(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1,
		nproc: runtime.NumCPU(), dir: dir, out: os.Stdout, metrics: map[string]metric{},
	}
	if r.traced {
		r.spans = &recorder{}
		for _, m := range perLayer {
			r.set(m.name, 0, m.unit)
		}
	}
	fmt.Fprintf(r.out, "e2ebench %s seed=%d seconds=%g trace=%d nproc=%d\n", r.workload, r.seed, r.seconds, *traced, r.nproc)
	switch r.workload {
	case paperRepro:
		err = r.paper()
	case gatewayHot:
		err = r.serving()
	default:
		err = fmt.Errorf("unknown --workload %q (want %s or %s)", r.workload, paperRepro, gatewayHot)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if r.traced {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.spans.report(r.out, path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: r.metrics}
	fmt.Fprintf(r.out, "error_rate %.6g ratio (%d failed of %d jobs attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(r.out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// set records one reported metric. NaN (an empty sample) reports as 0;
// an infinite latency, from failed batches that fail the run anyway,
// reports as the largest float, which JSON can carry.
func (r *run) set(name string, v float64, unit string) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = math.Copysign(math.MaxFloat64, v)
	}
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// failf records a failed output check; the run then reports correct=false.
func (r *run) failf(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further check failures not listed)")
	}
}

// count books jobs attempted and failed for error_rate.
func (r *run) count(attempted, failed int) {
	r.attempted.Add(int64(attempted))
	r.failed.Add(int64(failed))
}

// ---------------------------------------------------------------------------
// Statistics.

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) || pos == float64(lo) {
		return xs[lo] // also keeps an infinite neighbour out of an exact rank
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread prints a sample's minimum, quartiles and maximum.
func spread(xs []float64) string {
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g (n=%d)",
		quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1), len(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------------
// Process-wide runtime sampling.

// heapSampler tracks the peak live heap (as marked by the latest GC) while
// it runs, sampling every 5 ms; take reads and restarts the peak, so a
// caller can take one peak per slice of a run without the sampler storing
// anything that grows. A small heap (paper-repro's is about 2 MB)
// allocates too little for natural collections to catch its peak, so
// while the live heap is under smallHeap the sampler also forces a
// collection every 100 ms; that costs well under a millisecond there.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // since the last take
}

const smallHeap = 16 << 20

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var highest uint64
		for i := 0; ; i++ {
			if i%20 == 0 && highest < smallHeap {
				runtime.GC()
			}
			metrics.Read(s)
			v := s[0].Value.Uint64()
			highest = max(highest, v)
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// take returns the peak since the previous take, in MB, and restarts it.
func (h *heapSampler) take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// finish stops the sampler and returns the peak since the last take.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.take()
}

// liveHeap collects garbage and returns the live heap in MB.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeCounters are the cumulative Go runtime counters behind
// runtime.allocs_per_job and runtime.gc_cpu_share.
type runtimeCounters struct{ allocs, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
