package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// client speaks the batch API that xbarserver and xbargateway share:
// POST /v1/jobs, then the batch's SSE stream until its done event. It books
// every job for error_rate, fails the run on any failed job, and checks
// every result against the one the preparation recorded. A client with a
// recorder sends a sampled traceparent with every batch and keeps the
// per-job detail the per-layer numbers need.
type client struct {
	hc   *http.Client
	base string
	run  *run
	prep *prepared
	rec  *recorder // nil on untraced runs
}

// newHTTPClient caps the load generator at conns loopback connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// outcome is what a phase keeps of one batch. Untraced runs keep only
// these scalars, in slots allocated before timing starts, so the
// benchmark's own memory does not grow with the batches it completes.
type outcome struct {
	due, sent, done time.Time // done: the done event received, or the failure noticed
	jobs, failed    int
	bytes           int64        // request body plus every response byte
	detail          *batchDetail // traced runs only
}

// batchDetail is what the traced run needs of a batch beyond its times.
type batchDetail struct {
	jobIDs   []string        // as acknowledged, parallel to the batch's specs
	receipt  []int64         // unix ns each job's result event arrived
	failed   []bool          // the job counts as failed for error_rate
	timeline *trace.Timeline // the program's timeline of the batch
}

// latencyMS is the batch's due-to-done time. A batch with a failed job
// misses any latency limit, so it counts as infinitely late.
func (o *outcome) latencyMS() float64 {
	if o.failed > 0 {
		return math.Inf(1)
	}
	return ms(o.done.Sub(o.due))
}

// batch is one batch in flight.
type batch struct {
	c     *client
	req   *batchReq
	d     batchDetail
	bytes int64
}

// fail marks job i failed and fails the run.
func (b *batch) fail(i int, format string, a ...any) {
	b.d.failed[i] = true
	b.c.run.failf(format, a...)
}

// failAll marks every job of the batch failed and fails the run.
func (b *batch) failAll(format string, a ...any) {
	for i := range b.d.failed {
		b.d.failed[i] = true
	}
	b.c.run.failf(format, a...)
}

// do submits one batch and drains its event stream. due is when the batch
// was scheduled; traced runs afterwards fetch the program's timeline of
// the batch.
func (c *client) do(req *batchReq, due time.Time, parent int64) outcome {
	n := len(req.Jobs)
	b := &batch{c: c, req: req, d: batchDetail{receipt: make([]int64, n), failed: make([]bool, n)}}
	var sc trace.SpanContext
	if c.rec != nil {
		sc = trace.SpanContext{Trace: trace.NewTraceID(), Span: trace.NewSpanID(), Sampled: true}
	}
	root := c.rec.id()
	o := outcome{due: due, sent: time.Now(), jobs: n}
	var ack engine.SubmitResponse
	var ok bool
	c.rec.time(root, "bench.http.submit", func(int64) { ok = b.submit(sc, &ack) })
	if ok {
		c.rec.time(root, "bench.http.events", func(int64) { b.drain(ack.BatchID) })
	}
	o.done = time.Now()
	c.rec.add(root, parent, "bench.batch", due, o.done)
	for _, f := range b.d.failed {
		if f {
			o.failed++
		}
	}
	o.bytes = int64(len(req.Body)) + b.bytes
	c.run.count(n, o.failed)
	if c.rec != nil {
		if ok {
			c.rec.time(parent, "bench.http.trace", func(int64) { b.d.timeline = c.timeline(sc.Trace.String()) })
		}
		o.detail = &b.d
	}
	return o
}

func (b *batch) submit(sc trace.SpanContext, ack *engine.SubmitResponse) bool {
	req, err := http.NewRequest(http.MethodPost, b.c.base+"/v1/jobs", bytes.NewReader(b.req.Body))
	if err != nil {
		b.failAll("building submit: %v", err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if sc.Valid() {
		req.Header.Set(trace.Header, sc.Traceparent())
	}
	resp, err := b.c.hc.Do(req)
	if err != nil {
		b.failAll("submit: %v", err)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.bytes += int64(len(body))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.failAll("submit: HTTP %d %s %v", resp.StatusCode, strings.TrimSpace(string(body)), err)
		return false
	}
	// The gateway's acknowledgement is a superset of the member's: jobs it
	// could not place have an empty id (and an entry in its errors list),
	// which the drain below counts as never delivered.
	if err := json.Unmarshal(body, ack); err != nil || len(ack.JobIDs) != len(b.req.Jobs) {
		b.failAll("submit: bad acknowledgement (%v): %.200s", err, body)
		return false
	}
	b.d.jobIDs = ack.JobIDs
	return true
}

// drain reads the batch's SSE stream to its done event. A job fails when
// its result carries an error, when its id arrives twice or never, or when
// the stream ends before done; a result that differs from the prepared one
// fails the output check.
func (b *batch) drain(batchID string) {
	resp, err := b.c.hc.Get(b.c.base + "/v1/batches/" + batchID + "/events")
	if err != nil {
		b.failAll("events: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.failAll("events: HTTP %d", resp.StatusCode)
		return
	}
	pos := make(map[string]int, len(b.d.jobIDs))
	for i, id := range b.d.jobIDs {
		if id != "" {
			pos[id] = i
		}
	}
	seen := make([]bool, len(b.d.jobIDs))
	cr := &countingReader{r: resp.Body}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event, gotDone := "", false
	var data []byte
	for !gotDone && sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if event == "result" {
				b.result(data, pos, seen)
			}
			gotDone = event == "done"
			event, data = "", data[:0]
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		}
	}
	// Read the stream's end so the connection goes back to the pool
	// instead of being torn down (and redialed) for every batch.
	_, _ = io.Copy(io.Discard, cr)
	b.bytes += cr.n
	if !gotDone {
		b.failAll("event stream ended before done (%v)", sc.Err())
		return
	}
	for i := range seen {
		if !seen[i] {
			b.fail(i, "exactly-once: job %d (%q) never delivered", i, b.d.jobIDs[i])
		}
	}
}

// result takes one result event.
func (b *batch) result(data []byte, pos map[string]int, seen []bool) {
	var res engine.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		b.c.run.failf("undecodable result event: %v", err)
		return
	}
	i, known := pos[res.ID]
	switch {
	case !known:
		b.c.run.failf("exactly-once: result for unknown job id %q", res.ID)
	case seen[i]:
		b.fail(i, "exactly-once: job %s delivered twice", res.ID)
	default:
		seen[i] = true
		b.d.receipt[i] = time.Now().UnixNano()
		j := b.req.Jobs[i]
		if res.Err != "" {
			b.fail(i, "job %s (space spec %d): %s", res.ID, j, res.Err)
		} else if err := b.c.prep.verify(j, res); err != nil {
			b.c.run.failf("job %s (space spec %d): %v", res.ID, j, err)
		}
	}
}

// timeline fetches the program's span timeline of one trace (nil when it
// is gone).
func (c *client) timeline(traceID string) *trace.Timeline {
	resp, err := c.hc.Get(c.base + "/v1/traces/" + traceID)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var tl trace.Timeline
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&tl) != nil {
		return nil
	}
	return &tl
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
