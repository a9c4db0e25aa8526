package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// perLayer is the traced run's metric catalog (README.md explains each).
// Every traced run reports every entry; a layer a workload does not reach
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"gateway.submit_ms.p50", "ms"},
	{"gateway.submit_ms.p99", "ms"},
	{"gateway.self_ms.p50", "ms"},
	{"gateway.delivery_ms.p50", "ms"},
	{"gateway.members_per_batch", "count"},
	{"gateway.hedges_per_batch", "count"},
	{"gateway.retries_per_batch", "count"},
	{"engine.admit_ms.p50", "ms"},
	{"engine.admit_ms.p99", "ms"},
	{"engine.bytes_per_job", "bytes"},
	{"engine.queue_wait_ms.p50", "ms"},
	{"engine.queue_wait_ms.p99", "ms"},
	{"engine.publish_ms.p50", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.worker_busy_share", "ratio"},
	{"workpool.speedup", "x"},
	{"journal.append_us.p50", "us"},
	{"journal.replay_ms", "ms"},
	{"exec.synthesize-two-level_ms.p50", "ms"},
	{"exec.synthesize-multilevel_ms.p50", "ms"},
	{"exec.map-hba_ms.p50", "ms"},
	{"exec.map-ea_ms.p50", "ms"},
	{"exec.monte-carlo-yield_ms.p50", "ms"},
	{"exec.layout_share", "ratio"},
	{"minimize_ms.p50", "ms"},
	{"mapping.ea_trial_us", "us"},
	{"mapping.hba_trial_us", "us"},
	{"mapping.ea_match_checks", "count"},
	{"mapping.hba_match_checks", "count"},
	{"mapping.hba_backtracks", "count"},
	{"defect.regen_us", "us"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.complete_share", "ratio"},
	{"loadgen.late_ms.p99", "ms"},
}

// Program span names the traced run reads (internal/engine and
// internal/gateway mint them).
const (
	spAdmit    = "xbar.http.admit"
	spBatch    = "xbar.engine.batch"
	spQueue    = "xbar.engine.queue"
	spCacheHit = "xbar.engine.cache-hit"
	spDedup    = "xbar.engine.dedup-join"
	spPublish  = "xbar.engine.publish"
	spSSE      = "xbar.engine.sse"
	spExec     = "xbar.engine.exec."
	spGwSubmit = "xbar.gateway.submit"
	spGwMember = "xbar.gateway.member-submit"
	spGwHedge  = "xbar.gateway.hedge"
	spGwRetry  = "xbar.gateway.retry-wait"
)

// layers accumulates per-layer samples from complete program timelines.
type layers struct {
	admit, queue, publish    []float64
	exec                     map[string][]float64 // job kind -> ms
	execMS                   float64              // all exec spans
	gwSubmit, gwSelf         []float64
	gwDelivery               []float64
	members, hedges, retries []float64
	complete, total          int
}

func newLayers() *layers { return &layers{exec: map[string][]float64{}} }

func spanEnd(s trace.SpanOut) int64  { return s.StartNS + s.DurUS*1e3 }
func spanMS(s trace.SpanOut) float64 { return float64(s.DurUS) / 1e3 }

type jobKey struct{ member, job string }

// addServed checks one gateway batch's timeline for every span the batch
// must have produced and, when none is missing, takes its samples. It
// needs the gateway's submit root, a member attempt per member part and,
// on each member, the admission, batch and SSE spans; every job needs its
// queue wait, its outcome (execution, cache hit or dedup join) and its
// publish.
func (ls *layers) addServed(o *outcome) {
	ls.total++
	d := o.detail
	tl := d.timeline
	if tl == nil || len(d.jobIDs) == 0 {
		return
	}
	byName := map[string]int{}
	perMember := map[string]map[string]int{} // member token -> span name -> count
	jobs := map[jobKey]map[string]trace.SpanOut{}
	for _, s := range tl.Spans {
		byName[s.Name]++
		if perMember[s.Member] == nil {
			perMember[s.Member] = map[string]int{}
		}
		perMember[s.Member][s.Name]++
		if s.JobID != "" {
			k := jobKey{s.Member, s.JobID}
			if jobs[k] == nil {
				jobs[k] = map[string]trace.SpanOut{}
			}
			name := s.Name
			if strings.HasPrefix(name, spExec) {
				name = spExec
			}
			jobs[k][name] = s
		}
	}
	// The gateway's job ids are <member token>.<member job id>.
	keys := make([]jobKey, len(d.jobIDs))
	parts := map[string]bool{}
	for i, id := range d.jobIDs {
		tok, jid, ok := strings.Cut(id, ".")
		if !ok {
			return
		}
		keys[i] = jobKey{tok, jid}
		parts[tok] = true
	}
	if byName[spGwSubmit] != 1 || byName[spGwMember] < len(parts) {
		return
	}
	for m := range parts {
		pm := perMember[m]
		if pm[spAdmit] < 1 || pm[spBatch] < 1 || pm[spSSE] < 1 {
			return
		}
	}
	for _, k := range keys {
		js := jobs[k]
		_, exec := js[spExec]
		_, hit := js[spCacheHit]
		_, dedup := js[spDedup]
		if _, ok := js[spQueue]; !ok {
			return
		}
		if _, ok := js[spPublish]; !ok || !(exec || hit || dedup) {
			return
		}
	}
	ls.complete++

	for _, s := range tl.Spans {
		switch {
		case s.Name == spAdmit:
			ls.admit = append(ls.admit, spanMS(s))
		case s.Name == spQueue:
			ls.queue = append(ls.queue, spanMS(s))
		case s.Name == spPublish:
			ls.publish = append(ls.publish, spanMS(s))
		}
	}
	for i, k := range keys {
		ls.gwDelivery = append(ls.gwDelivery, float64(d.receipt[i]-spanEnd(jobs[k][spPublish]))/1e6)
	}
	var root trace.SpanOut
	var kids [][2]int64
	var members, hedges, retries float64
	for _, s := range tl.Spans {
		if s.Name == spGwSubmit {
			root = s
		}
	}
	for _, s := range tl.Spans {
		switch s.Name {
		case spGwMember:
			members++
		case spGwHedge:
			hedges++
		case spGwRetry:
			retries++
		default:
			continue
		}
		if s.ParentID == root.SpanID {
			kids = append(kids, [2]int64{max(s.StartNS, root.StartNS), min(spanEnd(s), spanEnd(root))})
		}
	}
	ls.gwSubmit = append(ls.gwSubmit, spanMS(root))
	ls.gwSelf = append(ls.gwSelf, spanMS(root)-unionLen(kids)/1e6)
	ls.members = append(ls.members, members)
	ls.hedges = append(ls.hedges, hedges)
	ls.retries = append(ls.retries, retries)
}

// addRun takes one in-process Engine.Run batch timeline: complete when the
// batch span is there and every job has its queue wait, execution and
// publish.
func (ls *layers) addRun(tl trace.Timeline) {
	ls.total++
	need := map[string]map[string]bool{}
	batch := false
	for _, s := range tl.Spans {
		if s.Name == spBatch {
			batch = true
		}
		if s.JobID == "" {
			continue
		}
		if need[s.JobID] == nil {
			need[s.JobID] = map[string]bool{}
		}
		name := s.Name
		if strings.HasPrefix(name, spExec) {
			name = spExec
		}
		need[s.JobID][name] = true
	}
	if !batch || len(need) == 0 {
		return
	}
	for _, have := range need {
		if !have[spQueue] || !have[spExec] || !have[spPublish] {
			return
		}
	}
	ls.complete++
	for _, s := range tl.Spans {
		switch {
		case s.Name == spQueue:
			ls.queue = append(ls.queue, spanMS(s))
		case s.Name == spPublish:
			ls.publish = append(ls.publish, spanMS(s))
		case strings.HasPrefix(s.Name, spExec):
			kind := strings.TrimPrefix(s.Name, spExec)
			ls.exec[kind] = append(ls.exec[kind], spanMS(s))
			ls.execMS += spanMS(s)
		}
	}
}

// set reports the span-derived per-layer metrics.
func (ls *layers) set(r *run) {
	r.set("engine.admit_ms.p50", quantile(ls.admit, 0.5), "ms")
	r.set("engine.admit_ms.p99", quantile(ls.admit, 0.99), "ms")
	r.set("engine.queue_wait_ms.p50", quantile(ls.queue, 0.5), "ms")
	r.set("engine.queue_wait_ms.p99", quantile(ls.queue, 0.99), "ms")
	r.set("engine.publish_ms.p50", quantile(ls.publish, 0.5), "ms")
	for _, k := range kindMix {
		r.set("exec."+string(k.kind)+"_ms.p50", median(ls.exec[string(k.kind)]), "ms")
	}
	r.set("gateway.delivery_ms.p50", median(ls.gwDelivery), "ms")
	r.set("gateway.submit_ms.p50", quantile(ls.gwSubmit, 0.5), "ms")
	r.set("gateway.submit_ms.p99", quantile(ls.gwSubmit, 0.99), "ms")
	r.set("gateway.self_ms.p50", median(ls.gwSelf), "ms")
	r.set("gateway.members_per_batch", mean(ls.members), "count")
	r.set("gateway.hedges_per_batch", mean(ls.hedges), "count")
	r.set("gateway.retries_per_batch", mean(ls.retries), "count")
	r.set("trace.complete_share", ratio(float64(ls.complete), float64(ls.total)), "ratio")
	fmt.Fprintf(r.out, "traced batches: %d, timelines complete: %d\n", ls.total, ls.complete)
}

// servingTraced is gateway-hot's traced run: an untraced open-loop pass
// (the overhead baseline), a traced pass over both phases that reads the
// program's timelines and counters, and the layer replay.
func (r *run) servingTraced(st *stream, hc *http.Client, prep *prepared) error {
	flU, _, err := r.setupFleet(hc, prep, -1, 1)
	if err != nil {
		return err
	}
	cU := &client{hc: hc, base: flU.url, run: r, prep: prep}
	rt0 := readRuntime()
	openU := cU.openLoop(st.Open, make([]outcome, len(st.Open)), r.openDur(), 0)
	rt := readRuntime().sub(rt0)
	flU.stop()
	hc.CloseIdleConnections()
	jobsU, _ := openU.jobs()
	var bytesU int64
	for _, o := range openU.outs {
		bytesU += o.bytes
	}

	flT, _, err := r.setupFleet(hc, prep, -1, 1)
	if err != nil {
		return err
	}
	before, err := scrapeMembers(hc, flT)
	if err != nil {
		flT.stop()
		return err
	}
	cT := &client{hc: hc, base: flT.url, run: r, prep: prep, rec: r.spans}
	start := time.Now()
	var openT, closedT phase
	r.spans.time(0, "bench.traced-pass", func(id int64) {
		openT = cT.openLoop(st.Open, make([]outcome, len(st.Open)), r.openDur(), id)
		closedT = cT.closedLoop(st.Closed, make([]outcome, len(st.Closed)), r.closedDur(), id)
	})
	wall := time.Since(start)
	after, err := scrapeMembers(hc, flT)
	flT.stop()
	if err != nil {
		return err
	}

	ls := newLayers()
	for _, p := range []phase{openT, closedT} {
		for i := range p.outs {
			ls.addServed(&p.outs[i])
		}
	}
	ls.set(r)
	delta := func(name string) float64 { return after.family(name) - before.family(name) }
	hits, misses := delta("xbar_engine_cache_hits_total"), delta("xbar_engine_cache_misses_total")
	r.set("engine.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("engine.worker_busy_share", ratio(delta("xbar_engine_job_seconds_sum"), float64(len(flT.members)*r.nproc)*wall.Seconds()), "ratio")
	r.set("engine.bytes_per_job", ratio(float64(bytesU), float64(jobsU)), "bytes")
	r.set("runtime.allocs_per_job", ratio(rt.allocs, float64(jobsU)), "count")
	r.set("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	// The overhead compares service times (send to done): the traced pass's
	// client also fetches a timeline after every batch, and that client
	// time is the benchmark's, not the program's.
	p50U, p50T := quantile(openU.serviceMS(), 0.5), quantile(openT.serviceMS(), 0.5)
	r.set("trace.overhead_pct", 100*ratio(p50T-p50U, p50U), "%")
	r.set("loadgen.late_ms.p99", quantile(openU.lateMS(), 0.99), "ms")
	fmt.Fprintf(r.out, "open loop median send-to-done: untraced %.4f ms, traced %.4f ms\n", p50U, p50T)

	out, err := r.replay(st.Space)
	if err != nil {
		return err
	}
	if _, err := r.appendAndReplay(out); err != nil {
		return err
	}
	// No job executes on the serving path, so the exec figures are the
	// replay's engine.Execute of the same specs.
	for _, k := range kindMix {
		r.set("exec."+string(k.kind)+"_ms.p50", median(out.executeMS[k.kind]), "ms")
	}
	// journal.replay_ms is the replay of what each member starts from.
	replayMS, err := r.replayJournal(prep.dir)
	if err != nil {
		return err
	}
	r.setReplayMetrics(out, replayMS)
	return nil
}

// paperTraced is paper-repro's traced run: an untraced pass at Workers =
// nproc (overhead baseline and runtime counters), a pass whose engine keeps
// every trace, the Table II phase at Workers = 1 for workpool.speedup, and
// the layer replay.
func (r *run) paperTraced() error {
	eU, _, err := paperEngine(r.nproc, -1, 1)
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	pU := r.study(eU, 0)
	rt := readRuntime().sub(rt0)
	eU.Close()

	eT, _, err := paperEngine(r.nproc, 1, 1)
	if err != nil {
		return err
	}
	var pT studyPass
	r.spans.time(0, "bench.traced-pass", func(id int64) { pT = r.study(eT, id) })
	// Engine.Run returns when the batch's result channel closes, just
	// before the engine finishes the batch's trace: wait for the last one.
	batches := 1 + len(sweepCircuits)
	for deadline := time.Now().Add(5 * time.Second); eT.Traces().KeptCount() < batches && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	tls := eT.Traces().Slowest(batches)
	eT.Close()

	e1, _, err := paperEngine(1, -1, 1)
	if err != nil {
		return err
	}
	var t1 time.Duration
	var err1 error
	t1 = r.spans.time(0, "bench.experiments.Table2.workers-1", func(int64) {
		_, err1 = experiments.Table2(experiments.Table2Options{Seed: r.seed, Only: table2Circuits, Engine: e1})
	})
	e1.Close()
	if err1 != nil {
		return err1
	}
	ref, err := referenceFor(r.seed)
	if err != nil {
		return err
	}
	r.checkPass(ref, pU)
	r.checkPass(ref, pT)

	ls := newLayers()
	for _, tl := range tls {
		ls.addRun(tl)
	}
	ls.set(r)
	wallT := pT.table2 + pT.sweepTime()
	r.set("engine.worker_busy_share", ratio(ls.execMS, float64(r.nproc)*ms(wallT)), "ratio")
	r.set("workpool.speedup", ratio(t1.Seconds(), pU.table2.Seconds()), "x")
	r.set("runtime.allocs_per_job", ratio(rt.allocs, float64(studyJobs())), "count")
	r.set("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	untraced, traced := pU.table2+pU.sweepTime(), pT.table2+pT.sweepTime()
	r.set("trace.overhead_pct", 100*ratio(ms(traced-untraced), ms(untraced)), "%")
	fmt.Fprintf(r.out, "table2_s %.6g s at Workers=%d, %.6g s at Workers=1\n", pU.table2.Seconds(), r.nproc, t1.Seconds())

	out, err := r.replay(r.paperSpecs())
	if err != nil {
		return err
	}
	replayMS, err := r.appendAndReplay(out)
	if err != nil {
		return err
	}
	r.setReplayMetrics(out, replayMS)
	return nil
}

// promSnapshot is one /metrics scrape summed over the members: every
// sample line keyed by its full series name.
type promSnapshot map[string]float64

// family sums every series of one metric family.
func (s promSnapshot) family(name string) float64 {
	total := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

func scrapeMembers(hc *http.Client, f *fleet) (promSnapshot, error) {
	snap := promSnapshot{}
	for _, m := range f.members {
		resp, err := hc.Get(m.srv.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line[0] == '#' {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut <= 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
				snap[line[:cut]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return snap, nil
}
