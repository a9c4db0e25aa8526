package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// fig8Rows is the paper's Figs. 7/8 walkthrough function (3 inputs, 2
// outputs), small enough that every kernel is fast.
var fig8Rows = []string{"11- 10", "-01 10", "0-0 01", "-11 01"}

func fig8Spec(kind Kind) JobSpec {
	return JobSpec{Kind: kind, Inputs: 3, Outputs: 2, Rows: fig8Rows}
}

// mcSpec is a Monte Carlo job that takes long enough to observe scheduling.
func mcSpec(seed int64) JobSpec {
	s := fig8Spec(MonteCarloYield)
	s.OpenRate = 0.10
	s.Samples = 40
	s.Seed = seed
	return s
}

// holdSpec is mcSpec with enough samples to keep one worker busy for
// milliseconds, for tests that need a job still running.
func holdSpec(seed int64) JobSpec {
	s := mcSpec(seed)
	s.Samples = 2000
	return s
}

func TestExecuteSynthesisKinds(t *testing.T) {
	two := Execute(context.Background(), fig8Spec(SynthTwoLevel))
	if two.Err != "" {
		t.Fatalf("two-level: %s", two.Err)
	}
	// Geometry: (P+O) x (2I+2O) = 6 x 10.
	if two.Rows != 6 || two.Cols != 10 || two.Area != 60 {
		t.Fatalf("two-level geometry = %dx%d (%d)", two.Rows, two.Cols, two.Area)
	}
	multi := Execute(context.Background(), fig8Spec(SynthMultiLevel))
	if multi.Err != "" {
		t.Fatalf("multi-level: %s", multi.Err)
	}
	if multi.Gates == 0 || multi.Area == 0 {
		t.Fatalf("multi-level result = %+v", multi)
	}
	bench := Execute(context.Background(), JobSpec{Kind: SynthTwoLevel, Benchmark: "rd53"})
	if bench.Err != "" {
		t.Fatalf("benchmark: %s", bench.Err)
	}
	// rd53: (31+3) x (2*5+2*3) = 34 x 16 = 544, the paper's Table I area.
	if bench.Area != 544 {
		t.Fatalf("rd53 area = %d, want 544", bench.Area)
	}
}

func TestExecuteMapWithExplicitDefects(t *testing.T) {
	// The Fig. 8 walkthrough fabric: HBA must find a valid mapping.
	spec := fig8Spec(MapHBA)
	spec.DefectMap = []string{
		"o.o.....o.", "..........", "oo........",
		".o..o.....", "..o.......", "...o...o..",
	}
	r := Execute(context.Background(), spec)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if !r.Valid || len(r.Assignment) == 0 {
		t.Fatalf("HBA on Fig. 8 fabric = %+v", r)
	}
	ea := spec
	ea.Kind = MapEA
	if r := Execute(context.Background(), ea); r.Err != "" || !r.Valid {
		t.Fatalf("EA on Fig. 8 fabric = %+v", r)
	}
}

func TestExecuteErrors(t *testing.T) {
	cases := []JobSpec{
		{Kind: "bogus", Benchmark: "rd53"},
		{Kind: SynthTwoLevel},                                          // no function source
		{Kind: SynthTwoLevel, Benchmark: "no-such-circuit"},            // unknown benchmark
		{Kind: MapHBA, Benchmark: "rd53", Style: "bogus"},              // unknown style
		{Kind: MonteCarloYield, Benchmark: "rd53", Algorithm: "bogus"}, // unknown algorithm
		{Kind: MapHBA, Inputs: 3, Outputs: 2, Rows: fig8Rows,
			DefectMap: []string{"?........."}}, // bad defect cell
	}
	for _, spec := range cases {
		if r := Execute(context.Background(), spec); r.Err == "" {
			t.Errorf("spec %+v must fail", spec)
		}
	}
}

// TestMonteCarloSetupErrorFailsJob is the regression test for the silent
// Psucc corruption bug: trial-setup failures (problem construction, defect
// regeneration) used to be counted as failed samples, reporting a depressed
// Psucc instead of an error. They must fail the job.
func TestMonteCarloSetupErrorFailsJob(t *testing.T) {
	// Problem construction fails: the fabric is smaller than the design.
	bad := mcSpec(1)
	bad.SpareRows = -1
	r := Execute(context.Background(), bad)
	if r.Err == "" {
		t.Fatalf("shrunken fabric must fail the job, got Psucc=%v over %d samples", r.Psucc, r.Samples)
	}
	if !strings.Contains(r.Err, "mapping:") {
		t.Errorf("error must come from problem construction, got %q", r.Err)
	}
	if r.Samples != 0 || r.Psucc != 0 {
		t.Errorf("failed job must not report Monte Carlo outputs: %+v", r)
	}

	// Defect regeneration fails: impossible defect probabilities.
	bad = mcSpec(1)
	bad.OpenRate = 1.5
	r = Execute(context.Background(), bad)
	if r.Err == "" {
		t.Fatalf("invalid defect rate must fail the job, got Psucc=%v over %d samples", r.Psucc, r.Samples)
	}
	if !strings.Contains(r.Err, "invalid probabilities") {
		t.Errorf("error must come from defect regeneration, got %q", r.Err)
	}

	// A healthy spec still succeeds, so the checks don't over-trigger.
	if r := Execute(context.Background(), mcSpec(1)); r.Err != "" {
		t.Fatalf("healthy spec failed: %s", r.Err)
	}
}

// TestNonFiniteDefectRatesFailJobs: a NaN rate compares false with both
// bounds of a range check, so unless it is rejected explicitly it samples a
// defect-free fabric and reads as Psucc 1. Every sampling job kind must
// fail on NaN and ±Inf.
func TestNonFiniteDefectRatesFailJobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, kind := range []Kind{MonteCarloYield, MapHBA, MapEA} {
		for _, rates := range [][2]float64{{nan, 0}, {0.1, nan}, {inf, 0}, {0, inf}, {-inf, 0}, {0.1, -inf}} {
			spec := mcSpec(1)
			spec.Kind = kind
			spec.OpenRate, spec.ClosedRate = rates[0], rates[1]
			r := Execute(context.Background(), spec)
			if !strings.Contains(r.Err, "invalid probabilities") {
				t.Errorf("%s with open %v closed %v: err %q, Psucc %v, valid %v; want an invalid-probabilities error",
					kind, rates[0], rates[1], r.Err, r.Psucc, r.Valid)
			}
		}
	}
}

// TestStatusEvictionSkipsLiveJobs pins the registry-growth fix: one stuck
// live batch at the head of the eviction order must not stop the finished
// batches behind it from being evicted, and is itself evicted once it
// finishes.
func TestStatusEvictionSkipsLiveJobs(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// registry reports the jobs the eviction order holds and whether the
	// stuck batch is still tracked, after checking that the order, the
	// batch lookup and the job index agree.
	registry := func() (held int, stuckKept bool) {
		t.Helper()
		e.mu.Lock()
		agree := len(e.batches) == len(e.batchOrder)
		for _, b := range e.batchOrder {
			agree = agree && e.batches[b.id] == b
			held += len(b.jobIDs)
		}
		agree = agree && len(e.jobs) == held
		_, stuckKept = e.batches["stuck"]
		e.mu.Unlock()
		if !agree {
			t.Fatal("batch order, batch lookup and job index disagree")
		}
		return held, stuckKept
	}
	register := func(id string, n int) *batchState {
		ids := make([]string, n)
		for j := range ids {
			ids[j] = fmt.Sprintf("%s-j%04d", id, j)
		}
		b := newBatchState(id, ids)
		e.mu.Lock()
		e.registerBatchLocked(b)
		e.mu.Unlock()
		return b
	}
	finish := func(b *batchState) {
		for j, id := range b.jobIDs {
			b.publish(j, JobResult{ID: id})
		}
	}

	stuck := register("stuck", 1) // stays pending: a live batch pinned at the head
	for i := 0; i < 20; i++ {
		finish(register(fmt.Sprintf("b%02d", i), MaxBatchJobs))
	}
	held, kept := registry()
	if held > maxRetainedJobs+len(stuck.jobIDs) {
		t.Fatalf("registry grew to %d jobs despite the bound %d plus 1 live job", held, maxRetainedJobs)
	}
	if !kept {
		t.Fatal("live batch must never be evicted")
	}
	if st, ok := e.Job(stuck.jobIDs[0]); !ok || st.Status != StatusPending {
		t.Fatalf("stuck job = %+v, %v; want pending", st, ok)
	}

	// Once the stuck batch finishes it is the first to go.
	finish(stuck)
	register("after", MaxBatchJobs)
	held, kept = registry()
	if kept || held > maxRetainedJobs {
		t.Fatalf("finished head must be evicted (kept=%v, %d jobs held)", kept, held)
	}
	if _, ok := e.Job(stuck.jobIDs[0]); ok {
		t.Fatal("evicted job still resolves")
	}
}

// TestRegistryBoundsRetainedJobs: the registry's one bound counts jobs, not
// batches, so a few drained maximum-size batches already evict the oldest
// one. Its stream and its jobs then answer 404 over HTTP, the newest batch
// still answers, and the registry holds at most maxRetainedJobs finished
// jobs.
func TestRegistryBoundsRetainedJobs(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	specs := make([]JobSpec, MaxBatchJobs)
	for i := range specs {
		specs[i] = JobSpec{Kind: SynthTwoLevel, Benchmark: "rd53"} // all but the first are cache hits
	}
	var batches []*Batch
	for i := 0; i < 5; i++ {
		b, err := e.Submit(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for r := range b.Results {
			if r.Err != "" {
				t.Fatalf("job %s: %s", r.ID, r.Err)
			}
		}
		batches = append(batches, b)
	}
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	oldest, newest := batches[0], batches[len(batches)-1]
	for path, want := range map[string]int{
		"/v1/batches/" + oldest.ID + "/events": http.StatusNotFound,
		"/v1/jobs/" + oldest.IDs[7]:            http.StatusNotFound,
		"/v1/batches/" + newest.ID + "/events": http.StatusOK,
		"/v1/jobs/" + newest.IDs[7]:            http.StatusOK,
	} {
		if got := status(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
	e.mu.Lock()
	held := len(e.jobs)
	e.mu.Unlock()
	if held > maxRetainedJobs {
		t.Errorf("registry holds %d finished jobs, bound %d", held, maxRetainedJobs)
	}
}

// TestEngineAdmissionControl exercises both submission bounds at the
// library level: queued-job and open-batch limits reject with
// ErrOverloaded, and the engine admits again once load drains.
func TestEngineAdmissionControl(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueuedJobs: 1, CacheSize: -1})
	defer e.Close()
	// A batch bigger than the queue limit can never be admitted: not
	// retryable, distinct error.
	if _, err := e.Submit(context.Background(), []JobSpec{mcSpec(8), mcSpec(9)}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch error = %v, want ErrBatchTooLarge", err)
	}
	// The first job holds the lone worker for milliseconds, so it is still
	// unfinished when the second submission exceeds MaxQueuedJobs.
	a, err := e.Submit(context.Background(), []JobSpec{holdSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), []JobSpec{mcSpec(2)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit submit error = %v, want ErrOverloaded", err)
	}
	for r := range a.Results {
		if r.Err != "" {
			t.Fatalf("admitted batch must complete: %s", r.Err)
		}
	}
	// finish() decrements the queue count before publishing the result, so
	// after draining the batch the engine must admit again.
	b, err := e.Submit(context.Background(), []JobSpec{mcSpec(2)})
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	for range b.Results {
	}

	eb := New(Options{Workers: 1, MaxBatches: 1, CacheSize: -1})
	defer eb.Close()
	a, err = eb.Submit(context.Background(), []JobSpec{holdSpec(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Submit(context.Background(), []JobSpec{mcSpec(4)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-batch submit error = %v, want ErrOverloaded", err)
	}
	for range a.Results {
	}
	// The open-batch count drops before the results channel closes.
	if _, err := eb.Submit(context.Background(), []JobSpec{mcSpec(4)}); err != nil {
		t.Fatalf("submit after batch drained: %v", err)
	}
}

func TestHashKeyIdentity(t *testing.T) {
	a, b := mcSpec(1), mcSpec(1)
	if a.hashKey() != b.hashKey() {
		t.Fatal("identical specs must hash identically")
	}
	b.TimeoutMS = 500
	if a.hashKey() != b.hashKey() {
		t.Fatal("timeout must not change the identity hash")
	}
	for _, mutate := range []func(*JobSpec){
		func(s *JobSpec) { s.Seed++ },
		func(s *JobSpec) { s.Kind = MapHBA },
		func(s *JobSpec) { s.OpenRate = 0.15 },
		func(s *JobSpec) { s.Samples++ },
		func(s *JobSpec) { s.Algorithm = "EA" },
		func(s *JobSpec) { s.Style = StyleMultiLevel },
		func(s *JobSpec) { s.SpareRows = 2 },
		func(s *JobSpec) { s.Minimize = true },
		func(s *JobSpec) { s.Rows = append([]string{}, "111 11") },
	} {
		c := mcSpec(1)
		mutate(&c)
		if c.hashKey() == a.hashKey() {
			t.Errorf("mutated spec %+v must hash differently", c)
		}
	}
}

// TestCanonicalHashGolden pins CanonicalHash for one spec of each job kind.
// The synthesis and Monte Carlo values predate mapResultVersion and must
// never move: journals and caches hold results under them. The map values
// include mapResultVersion, so they must differ from every key the same
// specs had before (old): the key before the version was introduced, so
// results journaled by the Munkres-based mappers are never served to the
// matching-based ones, and the version-2 key, so results counting
// MatchChecks as layout rows × CM rows are never served as counts of the
// pair tests made.
func TestCanonicalHashGolden(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
		old  []string
	}{
		{spec: JobSpec{Kind: SynthTwoLevel, Benchmark: "rd53"},
			want: "a03bcaa99665f9e9d2284b29165f94f982f49104d38e240bf1aca7e0668b0f2c"},
		{spec: JobSpec{Kind: SynthMultiLevel, Benchmark: "rd53", MaxFanin: 3},
			want: "c2e3089c24fd671f716daeedd1d094aded9dce1aa4098333562850aff6649fd4"},
		{spec: JobSpec{Kind: MonteCarloYield, Benchmark: "rd53", OpenRate: 0.1, Samples: 200, Seed: 2018, Algorithm: "EA"},
			want: "e14fed7c5ed51422a0161bfe628d2143b17a085207c78e93a1fd117fc86c629a"},
		{spec: JobSpec{Kind: MapHBA, Benchmark: "rd53", Minimize: true, OpenRate: 0.1, Seed: 7},
			want: "046b3e2f72c3ed6f6a05c83c6b367d9734931e023a8552e51fefe8f4531e011f",
			old: []string{
				"8cdc8f311847955e59e97ac1bc26b76ad3142f896116c87bc721a6d3c6cd4fb7",
				"cf4fed940c75bb8bd601e2e97b43c53eb9df63002a57bfea68a97845f1ceb5a6",
			}},
		{spec: JobSpec{Kind: MapEA, Benchmark: "rd53", Minimize: true, OpenRate: 0.1, Seed: 7},
			want: "ec58f228c829d1726a48b7c451d114dcdacb3f12f7ee905bfb687d5d60e42bcf",
			old: []string{
				"3ad19f1af472f2c2b3902fdfb4866348672c713d7c13f8ef0982e365f3232702",
				"7c41afd2758344f4323202ac430df0c932414571acbbb17e5fb4c895db2bfd32",
			}},
	} {
		got := tc.spec.CanonicalHash()
		if got != tc.want {
			t.Errorf("%s: CanonicalHash = %s, want %s", tc.spec.Kind, got, tc.want)
		}
		if slices.Contains(tc.old, got) {
			t.Errorf("%s: CanonicalHash still equals an old key", tc.spec.Kind)
		}
	}
}

func TestEngineRunsBatchAndSaturatesPool(t *testing.T) {
	const workers = 2
	e := New(Options{Workers: workers, CacheSize: -1})
	defer e.Close()
	specs := make([]JobSpec, 16)
	for i := range specs {
		specs[i] = mcSpec(int64(i)) // distinct seeds: no dedup
	}
	results, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("job %d: %s", i, r.Err)
		}
		if r.Samples != 40 {
			t.Fatalf("job %d ran %d samples", i, r.Samples)
		}
	}
	st := e.Stats()
	if st.Completed != 16 || st.Submitted != 16 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxConcurrent > workers {
		t.Fatalf("max concurrency %d exceeds %d workers", st.MaxConcurrent, workers)
	}
}

// TestUnreadResultsDoNotBlockWorkers pins the Batch.Results guarantee the
// HTTP submit path relies on: a batch whose results nobody reads still runs
// to completion on a single worker.
func TestUnreadResultsDoNotBlockWorkers(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	specs := make([]JobSpec, 8)
	for i := range specs {
		specs[i] = mcSpec(int64(i)) // distinct seeds: no dedup
	}
	if _, err := e.Submit(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	// Close returns once the queue has drained, or gives up after the bound
	// if a worker is stuck sending a result.
	e.CloseTimeout(30 * time.Second)
	if st := e.Stats(); st.Completed != int64(len(specs)) || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v; want %d completed and an empty queue", st, len(specs))
	}
}

func TestEngineResultsStreamInSpecOrderViaRun(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	specs := []JobSpec{
		fig8Spec(SynthTwoLevel),
		{Kind: SynthTwoLevel, Benchmark: "rd53"},
		fig8Spec(SynthMultiLevel),
	}
	results, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Area != 60 || results[1].Area != 544 || results[2].Gates == 0 {
		t.Fatalf("results out of order: %+v", results)
	}
}

func TestEngineCacheHitAndSharedDedup(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	spec := mcSpec(7)
	first, err := e.Run(context.Background(), []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].CacheHit {
		t.Fatal("first run cannot be a cache hit")
	}
	// Second run of the identical spec must come from the cache with the
	// same Psucc.
	second, err := e.Run(context.Background(), []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].CacheHit {
		t.Fatal("identical re-run must hit the cache")
	}
	if second[0].Psucc != first[0].Psucc || second[0].Samples != first[0].Samples {
		t.Fatalf("cached result drifted: %+v vs %+v", second[0], first[0])
	}
	// A batch full of the same job computes it once (cache + singleflight).
	dup := make([]JobSpec, 8)
	for i := range dup {
		dup[i] = mcSpec(7)
	}
	results, err := e.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" || !r.CacheHit {
			t.Fatalf("dup job %d: %+v", i, r)
		}
	}
}

func TestEngineCacheEviction(t *testing.T) {
	// One shard of capacity 2, so LRU order is global.
	c := newResultCache(2, 1)
	c.Put("1", JobResult{ID: "1"})
	c.Put("2", JobResult{ID: "2"})
	c.Put("3", JobResult{ID: "3"}) // evicts 1
	if got := c.Len(); got != 2 {
		t.Fatalf("cache entries = %d, want 2", got)
	}
	if _, ok := c.Get("1"); ok {
		t.Fatal("1 must have been evicted (LRU)")
	}
	c.Put("1", JobResult{ID: "1"}) // evicts 2, the least recently used
	if _, ok := c.Get("3"); !ok {
		t.Fatal("3 must still be cached")
	}
	if _, ok := c.Get("2"); ok {
		t.Fatal("2 must have been evicted (LRU)")
	}
}

// TestEngineCancellationMidBatch cancels a batch while one of its jobs runs
// and the rest wait. The lone worker finishes job 0, then holds job 1, a
// cancellable million-sample Monte Carlo job, so when the cancel lands job
// 0 is done, job 1 is running and jobs 2-31 are queued, on every schedule.
func TestEngineCancellationMidBatch(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := make([]JobSpec, 32)
	for i := range specs {
		specs[i] = mcSpec(int64(100 + i))
		specs[i].Samples = 200
	}
	specs[1] = JobSpec{Kind: MonteCarloYield, Benchmark: "rd53", Samples: 1_000_000}
	b, err := e.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := e.Job(b.IDs[1])
		if !ok {
			t.Fatalf("job %s does not resolve", b.IDs[1])
		}
		if st.Status == StatusRunning {
			break
		}
		if st.Status != StatusPending || time.Now().After(deadline) {
			t.Fatalf("held job = %+v, want pending then running", st)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	var ok, cancelled int
	for r := range b.Results {
		if r.Err == "" {
			ok++
		} else if strings.Contains(r.Err, "context canceled") {
			cancelled++
		} else {
			t.Fatalf("unexpected error: %s", r.Err)
		}
	}
	if ok != 1 || cancelled != len(specs)-1 {
		t.Fatalf("%d ok and %d cancelled, want 1 and %d", ok, cancelled, len(specs)-1)
	}
	// The engine must remain usable after a cancelled batch.
	after, err := e.Run(context.Background(), []JobSpec{fig8Spec(SynthTwoLevel)})
	if err != nil || after[0].Err != "" {
		t.Fatalf("engine unusable after cancel: %v %+v", err, after)
	}
}

func TestEnginePerJobTimeout(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	slow := mcSpec(5)
	slow.Samples = 100_000
	slow.TimeoutMS = 30
	start := time.Now()
	r, err := e.Run(context.Background(), []JobSpec{slow})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Err == "" {
		t.Fatal("a 30ms deadline on a 100k-sample job must expire")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v to fire", elapsed)
	}
}

func TestEngineSubmitValidation(t *testing.T) {
	e := New(Options{Workers: 1})
	// An empty batch is valid (serial code paths return empty results for
	// empty selections) and its channel closes immediately.
	b, err := e.Submit(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, open := <-b.Results; open {
		t.Fatal("empty batch channel must be closed")
	}
	if out, err := e.Run(context.Background(), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty Run = %v, %v", out, err)
	}
	e.Close()
	e.Close() // double close is safe
	if _, err := e.Submit(context.Background(), []JobSpec{fig8Spec(SynthTwoLevel)}); err == nil {
		t.Fatal("submit after close must fail")
	}
}

// TestRunLeavesNoJobState: Run's results are the batch's only record, so
// a caller looping over Run does not grow the batch registry or its job
// index, which the HTTP service reads.
func TestRunLeavesNoJobState(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	results, err := e.Run(context.Background(), []JobSpec{fig8Spec(SynthTwoLevel), fig8Spec(SynthMultiLevel)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("job %s: %s", r.ID, r.Err)
		}
		if _, ok := e.Job(r.ID); ok {
			t.Errorf("job %s still resolves after Run", r.ID)
		}
	}
	e.mu.Lock()
	jobs, batches, order := len(e.jobs), len(e.batches), len(e.batchOrder)
	e.mu.Unlock()
	if jobs != 0 || batches != 0 || order != 0 {
		t.Errorf("after Run: %d jobs, %d batches, %d ordered batches tracked, want 0", jobs, batches, order)
	}
}

// TestEngineJobStatusLifecycle walks jobs through pending, running and
// done. A cancellable million-sample Monte Carlo job holds the lone worker,
// so it stays running and the next batch's job stays pending until the
// cancel.
func TestEngineJobStatusLifecycle(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	long, err := e.Submit(ctx, []JobSpec{{Kind: MonteCarloYield, Benchmark: "rd53", Samples: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := e.Job(long.IDs[0])
		if !ok {
			t.Fatalf("job %s does not resolve", long.IDs[0])
		}
		if st.Status == StatusRunning {
			if st.Result != nil {
				t.Fatalf("running job carries a result: %+v", st)
			}
			break
		}
		if st.Status != StatusPending || time.Now().After(deadline) {
			t.Fatalf("held job = %+v, want pending then running", st)
		}
		time.Sleep(time.Millisecond)
	}
	b, err := e.Submit(context.Background(), []JobSpec{fig8Spec(SynthTwoLevel)})
	if err != nil {
		t.Fatal(err)
	}
	id := b.IDs[0]
	if st, ok := e.Job(id); !ok || st.Status != StatusPending || st.Result != nil {
		t.Fatalf("queued job = %+v ok=%v, want pending", st, ok)
	}
	cancel()
	for range long.Results {
	}
	for range b.Results {
	}
	if st, ok := e.Job(long.IDs[0]); !ok || st.Status != StatusDone || st.Result == nil ||
		!strings.Contains(st.Result.Err, "context canceled") {
		t.Fatalf("cancelled job = %+v ok=%v, want done with the cancel error", st, ok)
	}
	st, ok := e.Job(id)
	if !ok || st.Status != StatusDone || st.Result == nil || st.Result.Area != 60 {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	if _, ok := e.Job("j99999999"); ok {
		t.Fatal("unknown id must not resolve")
	}
}
