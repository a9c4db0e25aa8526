package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/xbar"
)

// setupRuns is how many times a serving run builds its program; setup_s is
// the median.
const setupRuns = 41

// prepared is gateway-hot's journal image: every spec of the space,
// computed once by the commit under test, and the result recorded for it.
type prepared struct {
	dir  string
	want []engine.JobResult // normalized results, parallel to the space
}

// serving runs gateway-hot: the program's setup, then an open loop and a
// closed loop of batches through the gateway.
func (r *run) serving() error {
	base := liveHeap()
	st, err := newStream(r.seed, r.seconds)
	if err != nil {
		return err
	}
	prep, err := r.prepare(st.Space)
	if err != nil {
		return err
	}
	hc := newHTTPClient(r.nproc)
	defer hc.CloseIdleConnections()
	if r.traced {
		return r.servingTraced(st, hc, prep)
	}
	openOuts, closedOuts := make([]outcome, len(st.Open)), make([]outcome, len(st.Closed))
	// The benchmark's own live data: the request stream, the prepared
	// results and the outcome slots. peak_heap_mb leaves it out.
	ownMB := liveHeap() - base
	fl, setup, err := r.setupFleet(hc, prep, -1, setupRuns)
	if err != nil {
		return err
	}
	c := &client{hc: hc, base: fl.url, run: r, prep: prep}
	heap := startHeapSampler()
	open := c.openLoop(st.Open, openOuts, r.openDur(), 0)
	runtime.GC() // the closed loop starts without the open loop's garbage
	closed := c.closedLoop(st.Closed, closedOuts, r.closedDur(), 0)
	peak := heap.finish() - ownMB
	fl.stop()
	if len(closed.outs) == len(st.Closed) {
		fmt.Fprintln(r.out, "warning: closed-loop stream exhausted before the phase ended")
	}

	lat := open.latenciesMS()
	p50, p99 := open.windowedP50MS(), quantile(lat, 0.99)
	rate := closed.bestJobsPerS()
	r.set("setup_s", setup, "s")
	r.set("peak_heap_mb", peak, "MB")
	r.set("batch_p50_ms", p50, "ms")
	r.set("jobs_per_s", rate, "jobs/s")
	fmt.Fprintf(r.out, "setup_s %.6g s (median of %d builds to ready)\n", setup, setupRuns)
	fmt.Fprintf(r.out, "open loop: %d batches at %g/s: batch_p50_ms %.4f ms (median of %d windows' p50), overall p50 %.4f ms, batch_p99_ms %.4f ms (n=%d), late p99 %.4f ms\n",
		len(lat), openRate, p50, int(open.length/window), quantile(lat, 0.5), p99, len(lat), quantile(open.lateMS(), 0.99))
	_, delivered := closed.jobs()
	fmt.Fprintf(r.out, "closed loop: %d clients, %d batches, jobs_per_s %.4f jobs/s (best of %d windows), overall %.4f jobs/s over %.3f s\n",
		r.nproc, len(closed.outs), rate, int(closed.length/window), float64(delivered)/closed.elapsed.Seconds(), closed.elapsed.Seconds())
	fmt.Fprintf(r.out, "windows: open-loop p50 ms %s; closed-loop jobs/s %s\n", spread(open.windowP50sMS()), spread(closed.windowJobsPerS()))
	fmt.Fprintf(r.out, "peak_heap_mb %.4f MB (process live heap less the benchmark's own %.4f MB)\n", peak, ownMB)
	return nil
}

func (r *run) openDur() time.Duration {
	return time.Duration(r.seconds * openShare * float64(time.Second))
}

func (r *run) closedDur() time.Duration {
	return time.Duration(r.seconds * (1 - openShare) * float64(time.Second))
}

// setupFleet builds the serving program n times, keeps the last one, and
// returns the median time from construction until every /readyz answers
// 200. Fresh journal directories (copies of the prepared image) are made
// outside the timed span.
func (r *run) setupFleet(hc *http.Client, prep *prepared, sampleRate float64, n int) (*fleet, float64, error) {
	var times []float64
	var fl *fleet
	for i := range n {
		dirs, err := r.freshDirs(prep)
		if err != nil {
			return nil, 0, err
		}
		var ferr error
		runtime.GC() // every build starts from the same collected heap
		d := r.spans.time(0, "bench.setup", func(int64) {
			if fl, ferr = r.startFleet(dirs, sampleRate); ferr == nil {
				ferr = waitReady(hc, fl.urls())
			}
		})
		if ferr != nil {
			if fl != nil {
				fl.stop()
			}
			return nil, 0, ferr
		}
		times = append(times, d.Seconds())
		if i < n-1 {
			fl.stop()
			hc.CloseIdleConnections()
		}
	}
	return fl, median(times), nil
}

// freshDirs makes the journal directories of one fleet: two copies of the
// prepared image.
func (r *run) freshDirs(prep *prepared) ([]string, error) {
	r.fleets++
	var dirs []string
	for m := range 2 {
		d := filepath.Join(r.dir, fmt.Sprintf("member-%d-%d", r.fleets, m))
		if err := copyDir(prep.dir, d); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

// prepare computes every spec of gateway-hot's space once, through an
// engine journaling into the image directory that each member later starts
// from. This is the benchmark's preparation and is not timed.
func (r *run) prepare(space []engine.JobSpec) (*prepared, error) {
	p := &prepared{dir: filepath.Join(r.dir, "prepared"), want: make([]engine.JobResult, len(space))}
	e := engine.New(engine.Options{Workers: r.nproc, JournalDir: p.dir, TraceSampleRate: -1})
	res, err := e.Run(context.Background(), space)
	e.Close()
	if err != nil {
		return nil, err
	}
	for i, s := range space {
		if res[i].Err != "" {
			return nil, fmt.Errorf("preparing the gateway-hot journals: %s job: %s", s.Kind, res[i].Err)
		}
		if err := checkResult(s, res[i]); err != nil {
			r.failf("prepared %s job (space spec %d): %v", s.Kind, i, err)
		}
		p.want[i] = normalized(res[i])
	}
	return p, nil
}

// checkResult re-derives what a result must be: every two-level area is
// (P+O)(2I+2O) of the submitted cover, and every valid mapping validates
// against its defect map rebuilt from the job's seed. The prepared results
// are checked once; every delivered result must equal its prepared one.
func checkResult(s engine.JobSpec, res engine.JobResult) error {
	if s.Kind == engine.SynthMultiLevel {
		if res.Area <= 0 || res.Area != res.Rows*res.Cols {
			return fmt.Errorf("multi-level area %d for %dx%d", res.Area, res.Rows, res.Cols)
		}
		return nil
	}
	c, err := buildCover(s)
	if err != nil {
		return err
	}
	p, o, i := c.NumProducts(), c.NumOut, c.NumIn
	if want := (p + o) * (2*i + 2*o); res.Area != want {
		return fmt.Errorf("two-level area %d, want (P+O)(2I+2O) = %d", res.Area, want)
	}
	switch s.Kind {
	case engine.MonteCarloYield:
		if res.Samples != s.Samples || res.Psucc < 0 || res.Psucc > 1 {
			return fmt.Errorf("monte carlo result: %d samples, psucc %v", res.Samples, res.Psucc)
		}
	case engine.MapHBA, engine.MapEA:
		if !res.Valid {
			return nil
		}
		l, err := xbar.NewTwoLevel(c)
		if err != nil {
			return err
		}
		dm, err := defect.Generate(l.Rows+s.SpareRows, l.Cols,
			defect.Params{POpen: s.OpenRate, PClosed: s.ClosedRate}, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return err
		}
		prob, err := mapping.NewProblem(l, dm)
		if err != nil {
			return err
		}
		if err := prob.Validate(res.Assignment); err != nil {
			return fmt.Errorf("valid mapping does not validate: %v", err)
		}
	}
	return nil
}

// verify checks one delivered result: a cache hit equal to the result the
// preparation recorded for space spec j.
func (p *prepared) verify(j int, res engine.JobResult) error {
	if !res.CacheHit {
		return fmt.Errorf("not a cache hit")
	}
	res.ID, res.CacheHit, res.Elapsed = "", false, 0
	if !reflect.DeepEqual(res, p.want[j]) {
		return fmt.Errorf("differs from the prepared result")
	}
	return nil
}

// normalized is a result as a cache hit serves it, minus the per-request
// identity: the wire form with no id, hit flag or elapsed time.
func normalized(res engine.JobResult) engine.JobResult {
	res.ID, res.CacheHit, res.Elapsed = "", false, 0
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // JobResult is plain data
	}
	var out engine.JobResult
	if err := json.Unmarshal(data, &out); err != nil {
		panic(err)
	}
	return out
}
