// Package analysis is xbarvet's engine: a dependency-free static-analysis
// driver (stdlib go/ast, go/build, go/parser, go/types only) that loads and
// type-checks the module and runs the repo-specific analyzers that lock in
// this codebase's load-bearing invariants — zero-allocation hot paths,
// journal/engine lock discipline, the metrics naming contract, and
// durable-write error handling.
//
// Findings are reported as "file:line: [analyzer] message". A finding is
// suppressed by a same-line or preceding-line comment of the form
//
//	//xbar:allow <analyzer> <reason>
//
// and the reason is mandatory: an allow without one is itself a finding.
// Functions opt into the hotpath-alloc contract with a doc comment line
// "//xbar:hotpath".
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer names, shared by the Analyzer values, their findings, and the
// //xbar:allow suppression comments.
const (
	hotpathAllocName    = "hotpath-alloc"
	lockIOName          = "lock-io"
	metricsContractName = "metrics-contract"
	errcheckDurableName = "errcheck-durable"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Format renders the finding as "file:line: [analyzer] message" with the
// filename relative to base (absolute when base is empty or unrelated).
func (f Finding) Format(base string) string {
	name := f.Pos.Filename
	if base != "" {
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, f.Pos.Line, f.Analyzer, f.Message)
}

// An Analyzer checks one module-wide invariant.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		LockIO,
		MetricsContract,
		ErrcheckDurable,
	}
}

// Lookup resolves comma-separable analyzer names; nil or empty selects the
// whole suite.
func Lookup(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return Analyzers(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the module, drops suppressed findings,
// and returns the rest sorted by position. Malformed suppression comments
// are appended as driver findings so a typoed allow cannot silently mask a
// real one.
func (m *Module) Run(analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(m) {
			if m.allowed(a.Name, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, m.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
