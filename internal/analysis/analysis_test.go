package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches expectation comments in fixture files:
//
//	code // want "substring of the finding message"
//
// Several wants may share a line.
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

type want struct {
	file   string // fixture-relative path
	line   int
	substr string
	hit    bool
}

// fixtureWants scans every .go file under dir for want comments.
func fixtureWants(t *testing.T, dir string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &want{file: rel, line: i + 1, substr: m[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning %s: %v", dir, err)
	}
	return wants
}

// runFixture loads the fixture module under testdata/name and returns the
// findings of one analyzer with fixture-relative paths.
func runFixture(t *testing.T, name, analyzer string) ([]Finding, *Module) {
	t.Helper()
	m, err := Load(Config{Dir: filepath.Join("testdata", name)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	as, err := Lookup([]string{analyzer})
	if err != nil {
		t.Fatalf("lookup %s: %v", analyzer, err)
	}
	return m.Run(as), m
}

func TestAnalyzersAgainstFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
	}{
		{"hotpath", "hotpath-alloc"},
		{"lockio", "lock-io"},
		{"metricsfix", "metrics-contract"},
		{"errcheckfix", "errcheck-durable"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			findings, m := runFixture(t, tc.fixture, tc.analyzer)
			if len(findings) == 0 {
				t.Fatalf("fixture %s produced no findings; seeded violations are not detected", tc.fixture)
			}
			wants := fixtureWants(t, filepath.Join("testdata", tc.fixture))
			for _, f := range findings {
				rel, err := filepath.Rel(m.Dir, f.Pos.Filename)
				if err != nil {
					rel = f.Pos.Filename
				}
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == rel && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding %s:%d: [%s] %s", rel, f.Pos.Line, f.Analyzer, f.Message)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("missing finding at %s:%d containing %q", w.file, w.line, w.substr)
				}
			}
		})
	}
}

func TestMalformedAllowIsReported(t *testing.T) {
	m, err := Load(Config{Dir: filepath.Join("testdata", "malformed")})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := m.Run(Analyzers())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the malformed-allow report: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "xbarvet" || !strings.Contains(f.Message, "malformed suppression") {
		t.Errorf("got [%s] %q, want driver malformed-suppression finding", f.Analyzer, f.Message)
	}
}

func TestLookup(t *testing.T) {
	all, err := Lookup(nil)
	if err != nil || len(all) != 4 {
		t.Fatalf("Lookup(nil) = %d analyzers, err %v; want all 4", len(all), err)
	}
	one, err := Lookup([]string{"lock-io"})
	if err != nil || len(one) != 1 || one[0].Name != "lock-io" {
		t.Fatalf("Lookup(lock-io) = %v, %v", one, err)
	}
	if _, err := Lookup([]string{"nope"}); err == nil {
		t.Fatal("Lookup(nope) succeeded; want unknown-analyzer error")
	}
}

func TestFindingFormat(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "/mod/pkg/file.go", Line: 7},
		Analyzer: "lock-io",
		Message:  "boom",
	}
	if got, wantStr := f.Format("/mod"), fmt.Sprintf("%s:7: [lock-io] boom", filepath.Join("pkg", "file.go")); got != wantStr {
		t.Errorf("Format(base) = %q, want %q", got, wantStr)
	}
	if got := f.Format("/elsewhere"); !strings.HasPrefix(got, "/mod/pkg/file.go:7:") {
		t.Errorf("Format(unrelated base) = %q, want absolute path kept", got)
	}
}

// TestRepoBothLegsClean is the self-test the CI gate relies on: the module
// this package lives in must run the whole suite clean. The module has one
// build, so there is one leg to load, "default"; the test keeps the name and
// subtest it had when a second, build-tagged leg was loaded beside it, so its
// results stay comparable across the module's history.
func TestRepoBothLegsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped in -short")
	}
	t.Run("default", func(t *testing.T) {
		m, err := Load(Config{Dir: filepath.Join("..", "..")})
		if err != nil {
			t.Fatalf("loading module: %v", err)
		}
		for _, f := range m.Run(Analyzers()) {
			t.Errorf("%s", f.Format(m.Dir))
		}
	})
}
