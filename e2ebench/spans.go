package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// benchSpan is one span the benchmark records around a call into a layer.
// Spans live in memory and are written out when the run ends.
type benchSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// recorder collects benchSpans. A nil recorder records nothing, so untraced
// runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []benchSpan
}

// id reserves a span id, so children can name a parent that is recorded
// after them.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a span under a reserved id.
func (r *recorder) add(id, parent int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, benchSpan{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	r.mu.Unlock()
}

// time runs fn inside a new span and returns the span's id to fn.
func (r *recorder) time(parent int64, name string, fn func(id int64)) time.Duration {
	id := r.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	r.add(id, parent, name, start, end)
	return end.Sub(start)
}

// report writes every span to path and prints, per span name, the count,
// median and p99 duration, median self time (the span minus the union of
// its children) and the name's share of all root-span time.
func (r *recorder) report(w io.Writer, path string) error {
	r.mu.Lock()
	spans := append([]benchSpan(nil), r.spans...)
	r.mu.Unlock()
	children := map[int64][]benchSpan{}
	var rootTotal float64
	for _, s := range spans {
		if s.Parent == 0 {
			rootTotal += float64(s.End - s.Start)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct{ dur, self []float64 }
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := float64(s.End - s.Start)
		a.dur = append(a.dur, d)
		a.self = append(a.self, d-covered(s, children[s.ID]))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "benchmark spans (%d) written to %s\n", len(spans), path)
	fmt.Fprintf(w, "%-36s %7s %12s %12s %12s %8s\n", "span", "count", "p50_ms", "p99_ms", "self_p50_ms", "share")
	for _, n := range names {
		a := byName[n]
		total := 0.0
		for _, d := range a.dur {
			total += d
		}
		fmt.Fprintf(w, "%-36s %7d %12.4f %12.4f %12.4f %8.4f\n", n, len(a.dur),
			quantile(a.dur, 0.5)/1e6, quantile(a.dur, 0.99)/1e6, quantile(a.self, 0.5)/1e6, ratio(total, rootTotal))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered is how much of s the union of kids' intervals covers.
func covered(s benchSpan, kids []benchSpan) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(k.Start, s.Start), min(k.End, s.End)})
	}
	return unionLen(iv)
}

// unionLen is the total length of the union of [start, end) intervals.
func unionLen(iv [][2]int64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return float64(total)
}
