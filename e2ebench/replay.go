package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

const (
	replayPrefix  = 20  // Monte Carlo samples replayed per job
	appendRecords = 128 // result records appended to the fresh journal
)

// replayed is what the layer-by-layer replay measured.
type replayed struct {
	minimizeMS    []float64
	layoutNS      float64 // map jobs: minimize + layout rebuild ...
	kernelNS      float64 // ... against that plus defect generation and mapping
	hbaUS, eaUS   []float64
	hbaChecks     []float64
	hbaBacktracks []float64
	eaChecks      []float64
	regenUS       []float64
	executeMS     map[engine.Kind][]float64 // engine.Execute per job kind
	records       []journal.KV
	appendUS      []float64
}

// replay feeds the run's own inputs (each distinct spec once)
// through each layer's public function in turn, recording a benchmark span
// around every call: minimize.Minimize, xbar.NewTwoLevel,
// synth.SynthesizeMultiLevel, defect.Map.Regenerate, mapping.HBAScratch /
// ExactScratch (a fixed prefix of each Monte Carlo job's samples, with the
// job's own per-sample seeds) and engine.Execute.
func (r *run) replay(specs []engine.JobSpec) (*replayed, error) {
	out := &replayed{executeMS: map[engine.Kind][]float64{}}
	seen := map[string]bool{}
	var err error
	r.spans.time(0, "bench.replay", func(root int64) {
		for _, s := range specs {
			if h := s.CanonicalHash(); seen[h] {
				continue
			} else {
				seen[h] = true
			}
			if err = r.replayOne(s, root, out); err != nil {
				return
			}
		}
	})
	return out, err
}

func (r *run) replayOne(s engine.JobSpec, parent int64, out *replayed) error {
	var err error
	r.spans.time(parent, "bench.replay.job", func(job int64) {
		var c *logic.Cover
		base := s
		base.Minimize = false
		if c, err = buildCover(base); err != nil {
			return
		}
		var layoutNS float64
		if s.Minimize {
			d := r.spans.time(job, "bench.replay.minimize.Minimize", func(int64) {
				c = minimize.Minimize(c, minimize.Options{MaxIterations: 2})
			})
			out.minimizeMS = append(out.minimizeMS, ms(d))
			layoutNS += float64(d)
		}
		var l *xbar.Layout
		if s.Kind == engine.SynthMultiLevel {
			r.spans.time(job, "bench.replay.synth.SynthesizeMultiLevel", func(int64) { l, err = multiLevelLayout(c, s) })
		} else {
			d := r.spans.time(job, "bench.replay.xbar.NewTwoLevel", func(int64) { l, err = xbar.NewTwoLevel(c) })
			layoutNS += float64(d)
		}
		if err != nil {
			return
		}
		switch s.Kind {
		case engine.MapHBA, engine.MapEA:
			algo := "HBA"
			if s.Kind == engine.MapEA {
				algo = "EA"
			}
			out.layoutNS += layoutNS
			out.kernelNS += layoutNS + r.trials(job, l, s, algo, 1, func(int) int64 { return s.Seed }, out)
		case engine.MonteCarloYield:
			r.trials(job, l, s, s.Algorithm, min(replayPrefix, s.Samples),
				func(i int) int64 { return montecarlo.SampleSeed(s.Seed, i) }, out)
			s.Samples = min(replayPrefix, s.Samples)
		}
		var res engine.JobResult
		d := r.spans.time(job, "bench.replay.engine.Execute."+string(s.Kind), func(int64) {
			res = engine.Execute(context.Background(), s)
		})
		out.executeMS[s.Kind] = append(out.executeMS[s.Kind], ms(d))
		if res.Err != "" {
			err = fmt.Errorf("replaying %s: %s", s.Kind, res.Err)
			return
		}
		value, jerr := json.Marshal(normalized(res))
		if jerr != nil {
			err = jerr
			return
		}
		out.records = append(out.records, journal.KV{Key: []byte(s.CanonicalHash()), Value: value})
	})
	return err
}

// trials regenerates n defect maps in place on one preallocated map (as
// the engine's Monte Carlo trial does) and maps each with the job's
// algorithm, recording per-trial time and kernel counts. It returns the
// nanoseconds spent in Regenerate and the mapper.
func (r *run) trials(parent int64, l *xbar.Layout, s engine.JobSpec, algo string, n int,
	seedOf func(int) int64, out *replayed) float64 {
	dm := defect.NewMap(l.Rows+s.SpareRows, l.Cols)
	p, err := mapping.NewProblem(l, dm)
	if err != nil {
		r.failf("replay: %v", err)
		return 0
	}
	var total time.Duration
	scratch := mapping.NewScratch()
	rng := rand.New(rand.NewSource(0))
	params := defect.Params{POpen: s.OpenRate, PClosed: s.ClosedRate}
	for i := range n {
		rng.Seed(seedOf(i))
		d := r.spans.time(parent, "bench.replay.defect.Regenerate", func(int64) { err = dm.Regenerate(params, rng) })
		if err != nil {
			r.failf("replay: %v", err)
			return float64(total)
		}
		total += d
		out.regenUS = append(out.regenUS, float64(d)/1e3)
		var res mapping.Result
		if algo == "EA" {
			d = r.spans.time(parent, "bench.replay.mapping.ExactScratch", func(int64) { res = mapping.ExactScratch(p, scratch) })
			out.eaUS = append(out.eaUS, float64(d)/1e3)
			out.eaChecks = append(out.eaChecks, float64(res.Stats.MatchChecks))
		} else {
			d = r.spans.time(parent, "bench.replay.mapping.HBAScratch", func(int64) { res = mapping.HBAScratch(p, scratch) })
			out.hbaUS = append(out.hbaUS, float64(d)/1e3)
			out.hbaChecks = append(out.hbaChecks, float64(res.Stats.MatchChecks))
			out.hbaBacktracks = append(out.hbaBacktracks, float64(res.Stats.Backtracks))
		}
		total += d
	}
	return float64(total)
}

// appendAndReplay appends the replayed result records one at a time to a
// fresh fsynced journal (journal.append_us), then reopens and replays it.
func (r *run) appendAndReplay(out *replayed) (float64, error) {
	dir := filepath.Join(r.dir, "append-journal")
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	for _, kv := range out.records[:min(len(out.records), appendRecords)] {
		var aerr error
		d := r.spans.time(0, "bench.replay.journal.Append", func(int64) { _, aerr = j.Append(kv.Key, kv.Value) })
		if aerr != nil {
			return 0, errors.Join(aerr, j.Close())
		}
		out.appendUS = append(out.appendUS, float64(d)/1e3)
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return r.replayJournal(dir)
}

// replayJournal opens an existing journal directory and replays every
// record, returning the wall time in ms.
func (r *run) replayJournal(dir string) (float64, error) {
	var err error
	n := 0
	d := r.spans.time(0, "bench.replay.journal.Replay", func(int64) {
		var j *journal.Journal
		if j, err = journal.Open(dir, journal.Options{}); err != nil {
			return
		}
		err = j.Replay(0, func(journal.Record) error { n++; return nil })
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("journal %s replayed no records", dir)
	}
	return ms(d), err
}

// setReplayMetrics reports the replay's per-layer numbers.
func (r *run) setReplayMetrics(out *replayed, replayMS float64) {
	r.set("minimize_ms.p50", median(out.minimizeMS), "ms")
	r.set("exec.layout_share", ratio(out.layoutNS, out.kernelNS), "ratio")
	r.set("mapping.hba_trial_us", mean(out.hbaUS), "us")
	r.set("mapping.ea_trial_us", mean(out.eaUS), "us")
	r.set("mapping.hba_match_checks", mean(out.hbaChecks), "count")
	r.set("mapping.ea_match_checks", mean(out.eaChecks), "count")
	r.set("mapping.hba_backtracks", mean(out.hbaBacktracks), "count")
	r.set("defect.regen_us", median(out.regenUS), "us")
	r.set("journal.append_us.p50", median(out.appendUS), "us")
	r.set("journal.replay_ms", replayMS, "ms")
}

// multiLevelLayout synthesizes the layout of a multi-level job as the
// engine does.
func multiLevelLayout(c *logic.Cover, s engine.JobSpec) (*xbar.Layout, error) {
	nw, err := synth.SynthesizeMultiLevel(c, synth.MultiLevelOptions{MaxFanin: s.MaxFanin, Minimize: s.Minimize})
	if err != nil {
		return nil, err
	}
	return xbar.NewMultiLevel(nw)
}

// buildCover rebuilds the function a job was submitted with, minimized
// under the engine's convention (two minimizer iterations) when the job
// asks for it.
func buildCover(s engine.JobSpec) (*logic.Cover, error) {
	var c *logic.Cover
	if s.Benchmark != "" {
		circ, ok := suite.ByName(s.Benchmark)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", s.Benchmark)
		}
		c = circ.Build()
	} else {
		var err error
		if c, err = logic.ParseCover(s.Inputs, s.Outputs, s.Rows...); err != nil {
			return nil, err
		}
	}
	if s.Minimize {
		c = minimize.Minimize(c, minimize.Options{MaxIterations: 2})
	}
	return c, nil
}
