package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// expectedPath is the expected-values file, relative to the repository
// root. Regenerate it from the root with
//
//	sh e2ebench/run.sh --regen-expected 0-40
const expectedPath = "e2ebench/expected_psucc.json"

// reference is the serial, engine-free Psucc of one seed's study.
type reference struct {
	Table2 map[string][2]float64 `json:"table2"` // circuit -> {HBA, EA}
	Yield  map[string][]float64  `json:"yield"`  // circuit -> sweep points, spares-major
}

//go:embed expected_psucc.json
var expectedJSON []byte

// referenceFor returns the recorded reference for seed, or computes it
// through the serial path for a seed the file does not hold (before the
// timed passes, so it is never measured).
func referenceFor(seed int64) (reference, error) {
	var all map[string]reference
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return reference{}, fmt.Errorf("%s: %v", expectedPath, err)
	}
	if ref, ok := all[strconv.FormatInt(seed, 10)]; ok {
		return ref, nil
	}
	return computeReference(seed)
}

// computeReference runs the study through experiments.Table2 and
// experiments.Yield with no engine: the serial reference path.
func computeReference(seed int64) (reference, error) {
	ref := reference{Table2: map[string][2]float64{}, Yield: map[string][]float64{}}
	rows, err := experiments.Table2(experiments.Table2Options{Seed: seed, Only: table2Circuits})
	if err != nil {
		return ref, err
	}
	for _, row := range rows {
		ref.Table2[row.Name] = [2]float64{row.HBA.Psucc, row.EA.Psucc}
	}
	for _, c := range sweepCircuits {
		pts, err := experiments.Yield(c, sweepSpares, sweepRates, paperSamples, seed)
		if err != nil {
			return ref, err
		}
		for _, p := range pts {
			ref.Yield[c] = append(ref.Yield[c], p.Psucc)
		}
	}
	return ref, nil
}

// regenExpected recomputes the file for the seeds FROM-TO.
func regenExpected(span string) error {
	from, to, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseInt(from, 10, 64)
	hi, err2 := strconv.ParseInt(to, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("--regen-expected wants FROM-TO, got %q", span)
	}
	all := map[string]reference{}
	for s := lo; s <= hi; s++ {
		ref, err := computeReference(s)
		if err != nil {
			return fmt.Errorf("seed %d: %v", s, err)
		}
		all[strconv.FormatInt(s, 10)] = ref
		fmt.Fprintf(os.Stderr, "seed %d done\n", s)
	}
	// One seed per line keeps the file readable and its diffs small.
	seeds := make([]string, 0, len(all))
	for s := range all {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	var b strings.Builder
	b.WriteString("{\n")
	for i, s := range seeds {
		line, err := json.Marshal(all[s])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(seeds)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%q: %s%s\n", s, line, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(expectedPath, []byte(b.String()), 0o644)
}
