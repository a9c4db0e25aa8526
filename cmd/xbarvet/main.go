// Command xbarvet runs the repo-invariant static-analysis suite of
// internal/analysis over the module: zero-alloc hot paths (hotpath-alloc),
// journal/engine lock discipline (lock-io), metrics naming rules
// (metrics-contract), and durable-write error handling (errcheck-durable).
//
// Usage:
//
//	xbarvet [-dir .] [-analyzers a,b] [-list] [packages]
//
// The whole module enclosing -dir is always loaded and checked (package
// arguments such as ./... are accepted for go-vet muscle-memory and
// ignored). Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory inside the module to analyze")
	names := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.Lookup(splitList(*names))
	if err != nil {
		fmt.Fprintf(stderr, "xbarvet: %v\n", err)
		return 2
	}
	m, err := analysis.Load(analysis.Config{Dir: *dir})
	if err != nil {
		fmt.Fprintf(stderr, "xbarvet: %v\n", err)
		return 2
	}
	findings := m.Run(analyzers)
	for _, f := range findings {
		fmt.Fprintln(stdout, f.Format(m.Dir))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "xbarvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
