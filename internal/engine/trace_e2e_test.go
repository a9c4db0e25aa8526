package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestTraceLifecycleSpans submits one journaled job with a sampled
// traceparent and asserts the kept timeline carries exactly one span per
// lifecycle stage — admission, batch, queue wait, kernel execution,
// journal commit, publish — correctly parented, with the caller's span id
// as the admission span's parent.
func TestTraceLifecycleSpans(t *testing.T) {
	e := New(Options{Workers: 1, JournalDir: t.TempDir()})
	defer e.Close()
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	const (
		traceID    = "0123456789abcdef0123456789abcdef"
		callerSpan = "00f067aa0ba902b7"
	)
	body, _ := json.Marshal(SubmitRequest{Jobs: []JobSpec{{Kind: SynthTwoLevel, Benchmark: "rd53"}}})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-"+traceID+"-"+callerSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.JobIDs) != 1 {
		t.Fatalf("submit: status=%d resp=%+v", resp.StatusCode, sub)
	}
	if sub.TraceID != traceID {
		t.Fatalf("submit trace_id = %q, want %q", sub.TraceID, traceID)
	}

	// FinishTrace runs asynchronously once the batch drains; poll the
	// timeline endpoint until it reports finished.
	var tl trace.Timeline
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		tl = trace.Timeline{}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
				t.Fatal(err)
			}
		}
		r.Body.Close()
		if tl.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never finished: status=%d timeline=%+v", r.StatusCode, tl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tl.TraceID != traceID || tl.Error {
		t.Fatalf("timeline = %+v", tl)
	}

	counts := make(map[string]int)
	byName := make(map[string]trace.SpanOut)
	for _, sp := range tl.Spans {
		counts[sp.Name]++
		byName[sp.Name] = sp
	}
	for _, want := range []string{
		"xbar.http.admit",
		"xbar.engine.batch",
		"xbar.engine.queue",
		"xbar.engine.exec.synthesize-two-level",
		"xbar.journal.commit",
		"xbar.engine.publish",
	} {
		if counts[want] != 1 {
			t.Errorf("span %q appears %d times, want exactly 1", want, counts[want])
		}
	}
	if t.Failed() {
		t.Fatalf("timeline spans: %+v", tl.Spans)
	}

	// Parenting: caller -> admit -> batch -> per-job leaves.
	admit, batch := byName["xbar.http.admit"], byName["xbar.engine.batch"]
	if admit.ParentID != callerSpan {
		t.Fatalf("admit parent = %q, want caller span %q", admit.ParentID, callerSpan)
	}
	if batch.ParentID != admit.SpanID {
		t.Fatalf("batch parent = %q, want admit span %q", batch.ParentID, admit.SpanID)
	}
	for _, leaf := range []string{"xbar.engine.queue", "xbar.engine.exec.synthesize-two-level", "xbar.journal.commit", "xbar.engine.publish"} {
		sp := byName[leaf]
		if sp.ParentID != batch.SpanID {
			t.Fatalf("%s parent = %q, want batch span %q", leaf, sp.ParentID, batch.SpanID)
		}
		if sp.JobID != "j00000001" {
			t.Fatalf("%s job id = %q", leaf, sp.JobID)
		}
	}
}
