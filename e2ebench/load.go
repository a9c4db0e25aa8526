package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// phase is one load phase: the outcome of each batch sent, in stream order.
type phase struct {
	start   time.Time
	length  time.Duration // the scheduled length; the last batches may end after it
	outs    []outcome
	elapsed time.Duration
}

// openLoop sends batches at their due times over a phase of the given
// length from nproc goroutines, each batch's outcome into its slot of outs. A
// batch that falls due while every goroutine is busy goes out late, and
// its latency still counts from its due time.
func (c *client) openLoop(batches []batchReq, outs []outcome, length time.Duration, parent int64) phase {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	c.rec.time(parent, "bench.phase.open-loop", func(id int64) {
		for range c.run.nproc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(batches) {
						return
					}
					due := start.Add(batches[i].Due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					outs[i] = c.do(&batches[i], due, id)
				}
			}()
		}
		wg.Wait()
	})
	return phase{start: start, length: length, outs: outs, elapsed: time.Since(start)}
}

// closedLoop runs nproc clients that each send their next batch as soon
// as the previous one is done, until d has passed; the phase ends when the
// last batch in flight is done.
func (c *client) closedLoop(batches []batchReq, outs []outcome, d time.Duration, parent int64) phase {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	c.rec.time(parent, "bench.phase.closed-loop", func(id int64) {
		for range c.run.nproc {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					if i >= len(batches) {
						return
					}
					outs[i] = c.do(&batches[i], time.Now(), id)
				}
			}()
		}
		wg.Wait()
	})
	return phase{start: start, length: d, outs: outs[:min(int(next.Load()), len(batches))], elapsed: time.Since(start)}
}

// window is the slice of a phase that each serving statistic is first
// taken over, so that outside load on a shared machine, which comes in
// bursts, moves a window or two rather than the result.
const window = time.Second

// windows puts each outcome into the whole window of the phase that the
// time at gives falls into; outcomes in the last, partial window are left
// out.
func (p phase) windows(at func(*outcome) time.Time) [][]*outcome {
	ws := make([][]*outcome, int(p.length/window))
	for i := range p.outs {
		o := &p.outs[i]
		if k := int(at(o).Sub(p.start) / window); k >= 0 && k < len(ws) {
			ws[k] = append(ws[k], o)
		}
	}
	return ws
}

// windowedP50MS is the median over whole windows, by due time, of each
// window's median due-to-done latency.
func (p phase) windowedP50MS() float64 { return median(p.windowP50sMS()) }

// windowP50sMS is each whole window's median due-to-done latency.
func (p phase) windowP50sMS() []float64 {
	var p50s []float64
	for _, w := range p.windows(func(o *outcome) time.Time { return o.due }) {
		if len(w) == 0 {
			continue
		}
		lat := make([]float64, len(w))
		for i, o := range w {
			lat[i] = o.latencyMS()
		}
		p50s = append(p50s, median(lat))
	}
	return p50s
}

// bestJobsPerS is the most jobs delivered per second in a whole window, by
// done time. Outside load only ever lowers a window's rate, and on a
// shared machine it comes and goes within a run and between runs.
func (p phase) bestJobsPerS() float64 { return quantile(p.windowJobsPerS(), 1) }

// windowJobsPerS is the jobs delivered per second in each whole window.
func (p phase) windowJobsPerS() []float64 {
	var rates []float64
	for _, w := range p.windows(func(o *outcome) time.Time { return o.done }) {
		delivered := 0
		for _, o := range w {
			delivered += o.jobs - o.failed
		}
		rates = append(rates, float64(delivered)/window.Seconds())
	}
	return rates
}

// latenciesMS is each batch's due-to-done time.
func (p phase) latenciesMS() []float64 {
	out := make([]float64, len(p.outs))
	for i := range p.outs {
		out[i] = p.outs[i].latencyMS()
	}
	return out
}

// serviceMS is each batch's send-to-done time.
func (p phase) serviceMS() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		out[i] = ms(o.done.Sub(o.sent))
	}
	return out
}

// lateMS is how late each batch was sent.
func (p phase) lateMS() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		out[i] = ms(o.sent.Sub(o.due))
	}
	return out
}

// jobs counts the phase's jobs and the delivered (not failed) ones.
func (p phase) jobs() (total, delivered int) {
	for _, o := range p.outs {
		total += o.jobs
		delivered += o.jobs - o.failed
	}
	return total, delivered
}
