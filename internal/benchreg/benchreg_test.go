package benchreg

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: elba
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimKernelEvents-8    	42559718	        28.27 ns/op	       0 B/op	       0 allocs/op
BenchmarkStationPipeline-8    	15398103	        78.64 ns/op	       8 B/op	       1 allocs/op
BenchmarkFigure1RubisJonasRT-8	     202	   5770277 ns/op	       215.0 paper-max-rt-ms	 1295661 B/op	    8135 allocs/op
BenchmarkParallelTrialSweep   	      90	  12667324 ns/op	         8.000 grid-points
PASS
ok  	elba	42.1s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	k, ok := byName["BenchmarkSimKernelEvents"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", rep.Benchmarks)
	}
	if k.NsPerOp != 28.27 || k.AllocsOp != 0 || k.Runs != 42559718 {
		t.Fatalf("kernel bench parsed wrong: %+v", k)
	}
	f := byName["BenchmarkFigure1RubisJonasRT"]
	if f.AllocsOp != 8135 || f.BytesOp != 1295661 {
		t.Fatalf("benchmem fields parsed wrong: %+v", f)
	}
	if f.Extra["paper-max-rt-ms"] != 215.0 {
		t.Fatalf("custom metric lost: %+v", f.Extra)
	}
	if p := byName["BenchmarkParallelTrialSweep"]; p.Extra["grid-points"] != 8 {
		t.Fatalf("no-benchmem line parsed wrong: %+v", p)
	}
	// Sorted by name for stable JSON diffs.
	for i := 1; i < len(rep.Benchmarks); i++ {
		if rep.Benchmarks[i-1].Name > rep.Benchmarks[i].Name {
			t.Fatalf("report not sorted: %q > %q", rep.Benchmarks[i-1].Name, rep.Benchmarks[i].Name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := again.MarshalIndent()
	if string(data) != string(data2) {
		t.Fatal("report serialization not deterministic")
	}
}

func TestCompareAndRegression(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsOp: 10},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 150, AllocsOp: 12},
		{Name: "BenchmarkNew", NsPerOp: 1},
	}}
	deltas := Compare(base, cur)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	a := deltas[0]
	if a.Name != "BenchmarkA" || !a.InBaseline || a.NsRatio != 1.5 || a.AllocsDelta != 2 {
		t.Fatalf("delta wrong: %+v", a)
	}
	if !a.Regressed(1.3, false) {
		t.Fatal("1.5x slowdown should regress at maxratio 1.3")
	}
	if a.Regressed(2.0, false) {
		t.Fatal("1.5x slowdown should pass at maxratio 2.0")
	}
	if !a.Regressed(2.0, true) {
		t.Fatal("alloc increase should regress with strict-allocs")
	}
	if deltas[1].InBaseline || deltas[1].Regressed(1.0, true) {
		t.Fatalf("new benchmark must never regress: %+v", deltas[1])
	}
}

func TestParseEmpty(t *testing.T) {
	rep, err := Parse(strings.NewReader("PASS\nok elba 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed phantom benchmarks: %+v", rep.Benchmarks)
	}
}

// TestParseRepeatedLines folds the five lines of a -count=5 run into one
// row: the median ns/op, runs and custom metric, and the minimum
// allocs/op and B/op.
func TestParseRepeatedLines(t *testing.T) {
	const out = `BenchmarkPipeline-2   100   500 ns/op   7 trials   2048 B/op   1038 allocs/op
BenchmarkPipeline-2   120   300 ns/op   9 trials   1024 B/op   1037 allocs/op
BenchmarkPipeline-2   110   900 ns/op   8 trials   1024 B/op   1037 allocs/op
BenchmarkPipeline-2    90   400 ns/op   8 trials   1024 B/op   1037 allocs/op
BenchmarkPipeline-2   130   200 ns/op   8 trials   1024 B/op   1037 allocs/op
`
	rep, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d rows, want 1: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.NsPerOp != 400 || b.Runs != 110 || b.Extra["trials"] != 8 {
		t.Errorf("medians wrong: %+v", b)
	}
	if b.AllocsOp != 1037 || b.BytesOp != 1024 {
		t.Errorf("minimums wrong: %+v", b)
	}
}
