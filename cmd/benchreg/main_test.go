package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOutput fabricates `go test -bench -benchmem` output for the
// benchmarks recorded in the testdata/BENCH_PR1.json fixture, scaling the
// fixture's ns/op by ratio (1.0 reproduces the baseline exactly).
func benchOutput(ratio float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: elba\n")
	rows := []struct {
		name          string
		ns            float64
		bytes, allocs int
	}{
		{"BenchmarkFigure1RubisJonasRT-8", 6188995, 2099184, 8140},
		{"BenchmarkFullTrialPipeline-8", 1469265, 646751, 3941},
		{"BenchmarkParallelTrialSweep-8", 8861541, 3681633, 10588},
		{"BenchmarkSimKernelEvents-8", 28.34, 0, 0},
		{"BenchmarkStationPipeline-8", 82.32, 24, 1},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t 100\t %.2f ns/op\t %d B/op\t %d allocs/op\n",
			r.name, r.ns*ratio, r.bytes, r.allocs)
	}
	b.WriteString("PASS\nok  \telba\t1.234s\n")
	return b.String()
}

func repoFixture(t *testing.T) string {
	t.Helper()
	path, err := filepath.Abs(filepath.Join("testdata", "BENCH_PR1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("BENCH_PR1.json fixture missing: %v", err)
	}
	return path
}

// TestRunPassesAgainstBaseline: output matching the recorded baseline
// must exit cleanly and report every comparison row.
func TestRunPassesAgainstBaseline(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-baseline", repoFixture(t)}, strings.NewReader(benchOutput(1.0)), &out)
	if err != nil {
		t.Fatalf("baseline-equal run failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("baseline-equal run flagged a regression:\n%s", out.String())
	}
	for _, name := range []string{"BenchmarkFigure1RubisJonasRT", "BenchmarkSimKernelEvents"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("comparison output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunFailsOnRegression: ns/op doubled against the baseline must fail
// with a non-nil error (main turns it into exit code 1) and name the
// offending benchmarks.
func TestRunFailsOnRegression(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-baseline", repoFixture(t), "-maxratio", "1.3"},
		strings.NewReader(benchOutput(2.0)), &out)
	if err == nil {
		t.Fatalf("2x slowdown passed the -maxratio 1.3 gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("failure does not mention a regression: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("no row marked REGRESSION:\n%s", out.String())
	}
}

// TestRunStrictAllocs: with -strict-allocs, a single extra allocation
// fails the gate even when ns/op is unchanged.
func TestRunStrictAllocs(t *testing.T) {
	grown := strings.Replace(benchOutput(1.0), " 8140 allocs/op", " 8141 allocs/op", 1)
	var out strings.Builder
	err := run([]string{"-baseline", repoFixture(t), "-strict-allocs"},
		strings.NewReader(grown), &out)
	if err == nil {
		t.Fatalf("alloc growth passed -strict-allocs:\n%s", out.String())
	}
	// The same input without the flag passes.
	out.Reset()
	if err := run([]string{"-baseline", repoFixture(t)}, strings.NewReader(grown), &out); err != nil {
		t.Fatalf("alloc growth failed without -strict-allocs: %v", err)
	}
}

// TestRunStrictAllocsRepeated reads the output of -count=5: a
// collection-inflated count in one line of five passes -strict-allocs,
// and a count one higher in all five fails it.
func TestRunStrictAllocsRepeated(t *testing.T) {
	for _, c := range []struct {
		grown int // lines whose count is one higher
		fail  bool
	}{{0, false}, {1, false}, {4, false}, {5, true}} {
		var in strings.Builder
		for i := 0; i < 5; i++ {
			lines := benchOutput(1.0)
			if i < c.grown {
				lines = strings.Replace(lines, " 3941 allocs/op", " 3942 allocs/op", 1)
			}
			in.WriteString(lines)
		}
		var out strings.Builder
		err := run([]string{"-baseline", repoFixture(t), "-strict-allocs"}, strings.NewReader(in.String()), &out)
		if (err != nil) != c.fail {
			t.Errorf("%d of 5 lines one alloc higher: error %v, want failure %v\n%s", c.grown, err, c.fail, out.String())
		}
	}
}

// TestRunWritesReport: -out writes a JSON report that a later run can
// load back as its baseline.
func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-out", path}, strings.NewReader(benchOutput(1.0)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 5 benchmarks") {
		t.Fatalf("unexpected -out summary:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(benchOutput(1.0)), &out); err != nil {
		t.Fatalf("round-tripped report rejected as baseline: %v", err)
	}
}

// TestRunRejectsEmptyInput: input with no benchmark lines is an error,
// not a silently empty report.
func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	err := run(nil, strings.NewReader("PASS\nok  \telba\t0.01s\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("empty input not rejected: %v", err)
	}
}
