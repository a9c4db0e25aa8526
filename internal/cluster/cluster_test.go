package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestRingPrefsDeterministicAndComplete(t *testing.T) {
	members := []string{"http://c:3", "http://a:1", "http://b:2"}
	r := NewRing(members, 0)
	r2 := NewRing([]string{"http://b:2", "http://a:1", "http://c:3"}, 0)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := r.Prefs(key)
		if len(p) != 3 {
			t.Fatalf("Prefs(%q) = %v, want 3 distinct members", key, p)
		}
		seen := map[string]bool{}
		for _, m := range p {
			if seen[m] {
				t.Fatalf("Prefs(%q) repeats member %s: %v", key, m, p)
			}
			seen[m] = true
		}
		if got, want := fmt.Sprint(p), fmt.Sprint(r2.Prefs(key)); got != want {
			t.Fatalf("ring depends on member list order: %s vs %s", got, want)
		}
		if r.Owner(key) != p[0] {
			t.Fatalf("Owner != Prefs[0]")
		}
	}
}

func TestRingDistributionRoughlyBalanced(t *testing.T) {
	for _, tc := range []struct {
		members []string
		vnodes  int
		lo, hi  float64
	}{
		{[]string{"http://a", "http://b", "http://c", "http://d"}, 128, 0.10, 0.45},
		// Fleets whose names differ only in a trailing port digit, like
		// the cluster-smoke CI fleet, at the gateway's default vnodes.
		{[]string{"http://localhost:8081", "http://localhost:8082", "http://localhost:8083"}, 0, 0.25, 0.42},
		{[]string{"http://localhost:8081", "http://localhost:8082"}, 0, 0.40, 0.60},
	} {
		r := NewRing(tc.members, tc.vnodes)
		counts := map[string]int{}
		const n = 8000
		for i := 0; i < n; i++ {
			counts[r.Owner([]byte(fmt.Sprintf("spec-hash-%d", i)))]++
		}
		if len(counts) != len(tc.members) {
			t.Fatalf("%v: only %d members own keys: %v", tc.members, len(counts), counts)
		}
		for m, c := range counts {
			frac := float64(c) / n
			if frac < tc.lo || frac > tc.hi {
				t.Errorf("member %s owns %.1f%% of keys, want [%.0f%%, %.0f%%] — ring badly unbalanced: %v",
					m, 100*frac, 100*tc.lo, 100*tc.hi, counts)
			}
		}
	}
}

// Removing one member must move only that member's keys: every other key
// keeps its owner (the consistent-hashing property the gateway's failover
// depends on).
func TestRingStabilityUnderMembershipChange(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	without := NewRing([]string{"http://a", "http://c"}, 0)
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		was, now := full.Owner(key), without.Owner(key)
		if was == "http://b" {
			if now == "http://b" {
				t.Fatalf("removed member still owns key %q", key)
			}
			// And the new owner must be the old second preference.
			if prefs := full.Prefs(key); prefs[1] != now {
				t.Fatalf("key %q moved to %s, want old second preference %s", key, now, prefs[1])
			}
			moved++
			continue
		}
		if was != now {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the removed member — test vacuous")
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if got := r.Prefs([]byte("k")); got != nil {
		t.Fatalf("empty ring Prefs = %v, want nil", got)
	}
	if got := r.Owner([]byte("k")); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
}

func TestBackoffGrowthCapAndJitterBounds(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	j := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.5}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		d := j.Delay(2, rnd)
		if d < 200*time.Millisecond || d > 400*time.Millisecond {
			t.Fatalf("jittered Delay(2) = %v, want within [200ms, 400ms]", d)
		}
	}
	var zero Backoff
	if d := zero.Delay(0, rnd); d <= 0 || d > DefaultBackoff.Base {
		t.Fatalf("zero-value Delay(0) = %v, want (0, %v]", d, DefaultBackoff.Base)
	}
}

func TestHealthCheckerEjectsAndReadmits(t *testing.T) {
	failing := map[string]bool{"http://b": true}
	var changes []string
	h := NewHealthChecker([]string{"http://a", "http://b"}, HealthOptions{
		Interval:         time.Hour, // driven manually via ProbeOnce
		FailThreshold:    3,
		RecoverThreshold: 2,
		Probe: func(_ context.Context, m string) error {
			if failing[m] {
				return errors.New("down")
			}
			return nil
		},
		OnChange: func(m string, healthy bool) {
			changes = append(changes, fmt.Sprintf("%s=%t", m, healthy))
		},
	})
	if !h.Healthy("http://b") {
		t.Fatal("members must start healthy (optimistic admission)")
	}
	ctx := context.Background()
	h.ProbeOnce(ctx)
	h.ProbeOnce(ctx)
	if !h.Healthy("http://b") {
		t.Fatal("ejected before FailThreshold consecutive failures")
	}
	h.ProbeOnce(ctx)
	if h.Healthy("http://b") {
		t.Fatal("not ejected after FailThreshold consecutive failures")
	}
	if h.Healthy("http://a") != true || h.HealthyCount() != 1 {
		t.Fatalf("healthy member affected by sibling ejection (count %d)", h.HealthyCount())
	}
	// One good probe must not re-admit below the recover threshold.
	failing["http://b"] = false
	h.ProbeOnce(ctx)
	if h.Healthy("http://b") {
		t.Fatal("re-admitted below RecoverThreshold")
	}
	h.ProbeOnce(ctx)
	if !h.Healthy("http://b") {
		t.Fatal("not re-admitted after RecoverThreshold consecutive successes")
	}
	if want := []string{"http://b=false", "http://b=true"}; fmt.Sprint(changes) != fmt.Sprint(want) {
		t.Fatalf("OnChange sequence = %v, want %v", changes, want)
	}
	snap := h.Snapshot()
	if len(snap) != 2 || snap[1].Member != "http://b" || !snap[1].Healthy {
		t.Fatalf("bad snapshot: %+v", snap)
	}
}

// A flapping member (alternating probe outcomes) must stay ejected: the
// consecutive-success requirement is the hysteresis.
func TestHealthCheckerHysteresis(t *testing.T) {
	up := false
	h := NewHealthChecker([]string{"http://a"}, HealthOptions{
		FailThreshold:    2,
		RecoverThreshold: 3,
		Probe: func(context.Context, string) error {
			up = !up
			if up {
				return nil
			}
			return errors.New("flap")
		},
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ { // ok, fail, ok, fail ... never 2 consecutive fails
		h.ProbeOnce(ctx)
	}
	if !h.Healthy("http://a") {
		t.Fatal("alternating failures below threshold must not eject")
	}
	// Force ejection, then flap: never RecoverThreshold consecutive oks.
	h.opt.Probe = func(context.Context, string) error { return errors.New("down") }
	h.ProbeOnce(ctx)
	h.ProbeOnce(ctx)
	if h.Healthy("http://a") {
		t.Fatal("not ejected")
	}
	n := 0
	h.opt.Probe = func(context.Context, string) error {
		n++
		if n%3 == 0 {
			return errors.New("flap")
		}
		return nil
	}
	for i := 0; i < 9; i++ {
		h.ProbeOnce(ctx)
	}
	if h.Healthy("http://a") {
		t.Fatal("flapping member re-admitted without RecoverThreshold consecutive successes")
	}
}
