package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/randfunc"
)

// batchReq is one generated POST /v1/jobs request. Every field is fixed
// before timing starts, so identical seeds send identical bytes in the same
// order whatever the scheduling of the client goroutines.
type batchReq struct {
	Due  time.Duration // open-loop send time, relative to the phase start
	Jobs []int         // each job's spec, as an index into the stream's Space
	Body []byte
}

// stream is gateway-hot's whole request stream.
type stream struct {
	Open   []batchReq       // Poisson arrivals at openRate
	Closed []batchReq       // taken in order by the closed-loop clients
	Space  []engine.JobSpec // the specs the member journals hold
}

// gateway-hot's load. openRate was set once from the closed-loop capacity
// measured when the benchmark was introduced (about 1000 batches/s);
// closedCap bounds closed-loop batches per second and so sizes the
// pre-generated closed-loop stream.
const (
	openRate  = 380.0 // batches/s
	closedCap = 2300.0
)

// openShare is the part of --seconds spent in the open-loop phase; the
// closed-loop phase gets the rest.
const openShare = 0.5

// Job mix: xbarloadgen's default kind weights, its benchmark pool, 40-sample
// Monte Carlo jobs, and the paper's 10 % stuck-open rate.
var (
	kindMix = []struct {
		kind   engine.Kind
		weight int
	}{
		{engine.SynthTwoLevel, 3},
		{engine.SynthMultiLevel, 1},
		{engine.MapHBA, 2},
		{engine.MapEA, 1},
		{engine.MonteCarloYield, 1},
	}
	benchPool = []string{"rd53", "squar5", "misex1", "inc", "sqrt8"}
	// mapPool is the benchmark pool of map and Monte Carlo jobs. sqrt8
	// serves synthesis jobs only: mapped, it is either 256 minterm rows
	// (one exact map costs as much as a thousand other jobs) or minimized
	// (15 ms, ten times any other job here), and its few jobs would set
	// the preparation's and the traced replay's length.
	mapPool = benchPool[:4]
)

const (
	mcSamples = 40
	stuckOpen = 0.10
	spaceSize = 192 // distinct specs in the prepared journals
)

// gatewaySizes is xbarloadgen's default batch-size mix (size:weight).
var gatewaySizes = []struct{ size, weight int }{{1, 4}, {4, 3}, {16, 2}, {64, 1}}

// newStream generates gateway-hot's request stream: a space of distinct
// specs and batches drawn from it. It is a pure function of its arguments.
func newStream(seed int64, seconds float64) (*stream, error) {
	openDur := time.Duration(seconds * openShare * float64(time.Second))
	closedN := int(math.Ceil(closedCap * seconds * (1 - openShare)))
	st := &stream{Space: newSpace(rng(seed, "space"))}
	pick := rng(seed, "batches")
	draw := func() []int {
		jobs := make([]int, gatewaySize(pick))
		for i := range jobs {
			jobs[i] = pick.Intn(len(st.Space))
		}
		return jobs
	}
	st.Open = arrivals(rng(seed, "arrivals"), openRate, openDur, draw)
	for range closedN {
		st.Closed = append(st.Closed, batchReq{Jobs: draw()})
	}
	for _, phase := range [][]batchReq{st.Open, st.Closed} {
		for i := range phase {
			specs := make([]engine.JobSpec, len(phase[i].Jobs))
			for k, j := range phase[i].Jobs {
				specs[k] = st.Space[j]
			}
			body, err := json.Marshal(engine.SubmitRequest{Jobs: specs})
			if err != nil {
				return nil, err
			}
			phase[i].Body = body
		}
	}
	return st, nil
}

// rng derives an independent generator per (seed, part), so each part of
// the stream depends only on the seed and not on the others' length.
func rng(seed int64, part string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", gatewayHot, seed, part)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// arrivals draws Poisson arrival times at rate per second over d.
func arrivals(r *rand.Rand, rate float64, d time.Duration, batch func() []int) []batchReq {
	var out []batchReq
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, batchReq{Due: due, Jobs: batch()})
	}
}

func gatewaySize(r *rand.Rand) int {
	total := 0
	for _, s := range gatewaySizes {
		total += s.weight
	}
	n := r.Intn(total)
	for _, s := range gatewaySizes {
		if n < s.weight {
			return s.size
		}
		n -= s.weight
	}
	return gatewaySizes[len(gatewaySizes)-1].size
}

// newSpace makes gateway-hot's spec space. Its make-up is fixed, so that
// the seed changes the specs but not what an average job costs: each kind
// in proportion to its weight; the synthesis kinds on every benchmark
// circuit, minimized and not, and the map and Monte Carlo kinds half on
// the map pool in turn, all of these minimized as Table II maps them;
// every other spec on a random Fig. 6 function (sent as PLA rows) whose
// input count cycles through 8..15, minimized for every other eight. The
// seed draws the functions and the defect seeds.
func newSpace(r *rand.Rand) []engine.JobSpec {
	total := 0
	for _, k := range kindMix {
		total += k.weight
	}
	var out []engine.JobSpec
	for _, k := range kindMix {
		n := spaceSize * k.weight / total
		var fixed []engine.JobSpec
		if k.kind == engine.SynthTwoLevel || k.kind == engine.SynthMultiLevel {
			for _, b := range benchPool {
				for _, m := range []bool{false, true} {
					fixed = append(fixed, engine.JobSpec{Kind: k.kind, Benchmark: b, Minimize: m})
				}
			}
		} else {
			for i := range n / 2 {
				fixed = append(fixed, engine.JobSpec{Kind: k.kind, Benchmark: mapPool[i%len(mapPool)], Minimize: true})
			}
		}
		for i := range n {
			var s engine.JobSpec
			if i < len(fixed) {
				s = fixed[i]
			} else {
				j := i - len(fixed)
				inputs := 8 + j%8
				c, err := randfunc.Generate(randfunc.Params{Inputs: inputs}, rand.New(rand.NewSource(r.Int63())))
				if err != nil {
					panic(err) // 8..15 inputs are always valid parameters
				}
				s = engine.JobSpec{Kind: k.kind, Inputs: inputs, Outputs: 1, Rows: strings.Split(c.String(), "\n"), Minimize: j/8%2 == 0}
			}
			switch k.kind {
			case engine.MapHBA, engine.MapEA:
				s.OpenRate, s.Seed = stuckOpen, 1+r.Int63n(1<<40)
			case engine.MonteCarloYield:
				s.OpenRate, s.Seed, s.Samples = stuckOpen, 1+r.Int63n(1<<40), mcSamples
			}
			out = append(out, s)
		}
	}
	return out
}
