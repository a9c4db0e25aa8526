package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func runVet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d, want 0", code)
	}
	for _, name := range []string{"hotpath-alloc", "lock-io", "metrics-contract", "errcheck-durable"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, errOut := runVet(t, "-analyzers", "nope", "-dir", "testdata/clean")
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr %q does not name the unknown analyzer", errOut)
	}
}

func TestLoadFailureIsExit2(t *testing.T) {
	if code, _, _ := runVet(t, "-dir", "testdata/no-such-module"); code != 2 {
		t.Fatalf("missing module exited %d, want 2", code)
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	code, out, errOut := runVet(t, "-dir", "testdata/clean", "./...")
	if code != 0 {
		t.Fatalf("clean module exited %d, want 0\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if out != "" {
		t.Errorf("clean module printed findings:\n%s", out)
	}
}

var findingLine = regexp.MustCompile(`^sync\.go:\d+: \[errcheck-durable\] .+Sync error discarded`)

func TestFindingsFormatAndExitCode(t *testing.T) {
	code, out, errOut := runVet(t, "-dir", "testdata/dirty", "./...")
	if code != 1 {
		t.Fatalf("dirty module exited %d, want 1", code)
	}
	if !findingLine.MatchString(out) {
		t.Errorf("stdout does not carry a module-relative file:line: [analyzer] finding:\n%s", out)
	}
	if !strings.Contains(errOut, "xbarvet: 1 finding(s)") {
		t.Errorf("stderr summary missing the finding count: %q", errOut)
	}
}

func TestAnalyzerFilter(t *testing.T) {
	code, out, _ := runVet(t, "-dir", "testdata/dirty", "-analyzers", "lock-io")
	if code != 0 {
		t.Fatalf("lock-io-only run over errcheck violations exited %d, want 0\n%s", code, out)
	}
}
