package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"elba/internal/campaign"
	"elba/internal/report"
	"elba/internal/store"
)

// TestSmokeAllWorkloads runs every workload at tiny scale, untraced and
// traced, and checks that the runs pass their own checks (cache-hit
// byte identity, log replay, traced-equals-untraced) and report every
// metric with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 3, seconds: 0.05, scale: tinyScale, workdir: t.TempDir()}
			plain := runOK(t, cfg, endToEnd)

			cfg.trace = true
			cfg.traceout = filepath.Join(t.TempDir(), "trace.json")
			traced := runOK(t, cfg, perLayer)
			if plain.digest != traced.digest {
				t.Errorf("digest %s untraced, %s traced", plain.digest, traced.digest)
			}
			data, err := os.ReadFile(cfg.traceout)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, %v", len(chrome.TraceEvents), err)
			}
		})
	}
}

func runOK(t *testing.T, cfg runConfig, defs []metricDef) *outcome {
	t.Helper()
	out, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < cfg.scale.digestJobs {
		t.Fatalf("result %+v, failures %v", out.result, out.failures)
	}
	if len(out.result.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(out.result.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := out.result.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
	return out
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the harness reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the harness", i, w.Name, names[i])
		}
	}
	for _, c := range []struct{ json, code []metricDef }{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the harness %d", len(c.json), len(c.code))
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v in the harness", i, c.json[i], c.code[i])
			}
		}
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{100, 0.90, 0.90},
		{99, 0.90, 0.75},
		{19, 0.99, 0.5},
		{5, 0.5, 0.5},
	} {
		if got := tailQuantile(c.n, c.q); got != c.want {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

// TestSelfTime checks that a span's self time subtracts the union of its
// children, clipped to the span, and not its grandchildren twice.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "parent", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0}, // overlaps a
		{name: "c", start: 60, end: 70, parent: 0},
		{name: "d", start: 90, end: 120, parent: 0}, // runs past the parent
		{name: "grandchild", start: 12, end: 18, parent: 1},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{40, 14, 30, 10, 30, 6} {
		if self[i] != want {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, self[i], want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "points_per_s", Better: "higher", Bound: 0.05}
	runs := func(base float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base * (1 + 0.002*float64(i%5-2)) // ±0.4% spread
		}
		return xs
	}
	wide := []float64{80, 120, 90, 110, 100, 95, 105, 85, 115, 100}
	for _, c := range []struct {
		name     string
		pv, cv   []float64
		unpaired string
		want     string
	}{
		{"gain", runs(100, 10), runs(110, 10), "", "gain"},
		{"within bound", runs(100, 10), runs(97, 10), "", "no-regression"},
		{"past bound", runs(100, 10), runs(90, 10), "", "regression"},
		{"spread wider than bound", wide, wide, "", "unresolved"},
		{"spread wide but every change run better", wide, runs(200, 10), "", "gain"},
		{"too few pairs", runs(100, 9), runs(90, 9), "", "unresolved"},
		{"not comparable pairs", runs(100, 10), runs(90, 10), "pairs do not alternate", "unresolved"},
	} {
		if got := judge(def, c.pv, c.cv, c.unpaired); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%s), want %s", c.name, got.Verdict, got.Reason, c.want)
		}
	}
	lower := metricDef{Name: "job_p50_s", Better: "lower", Bound: 0.07}
	if got := judge(lower, runs(1, 10), runs(1.1, 10), ""); got.Verdict != "regression" {
		t.Errorf("slower job: verdict %s, want regression", got.Verdict)
	}
}

// TestCompareRunsPairing feeds compare two record sets through the same
// path `compare` takes and checks the pairing rules: pairs must
// alternate which side ran first, and every run must be equally long.
func TestCompareRunsPairing(t *testing.T) {
	pairs := func(alternate bool, changeSeconds float64) (parent, change []record) {
		for i := 0; i < 10; i++ {
			p, c := int64(2*i), int64(2*i+1)
			if alternate && i%2 == 1 {
				p, c = c, p
			}
			parent = append(parent, rec("des-sweep", p, 20, 100))
			change = append(change, rec("des-sweep", c, changeSeconds, 100))
		}
		return parent, change
	}
	for _, c := range []struct {
		name          string
		alternate     bool
		changeSeconds float64
		want          string
	}{
		{"alternating, same length", true, 20, "no-regression"},
		{"same side first every time", false, 20, "unresolved"},
		{"change runs shorter", true, 15, "unresolved"},
	} {
		rows, bad := compareRuns(pairs(c.alternate, c.changeSeconds))
		if len(bad) != 0 || len(rows) != len(endToEnd) {
			t.Fatalf("%s: %d rows, bad %v", c.name, len(rows), bad)
		}
		for _, r := range rows {
			if r.Verdict != c.want {
				t.Errorf("%s: %s %s (%s), want %s", c.name, r.Metric, r.Verdict, r.Reason, c.want)
			}
		}
	}
}

func rec(w string, start int64, seconds, v float64) record {
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return record{Workload: w, Seconds: seconds, StartNs: start, Result: result{Correct: true, Attempted: 1, Metrics: m}}
}

// TestVerifyLogDetectsMismatch checks the observe-stream replay check is
// not vacuous: a log that replays to other tables, or holds another
// record count, fails it.
func TestVerifyLogDetectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	l, err := campaign.OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	r := store.Result{Key: store.Key{Experiment: "e", Topology: "1-1-1", Users: 100}, Completed: true, Requests: 10, Throughput: 1}
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f := report.NewFolder()
	f.Ingest(r)
	if err := verifyLog(path, f.Tables(), 1); err != nil {
		t.Fatalf("matching log: %v", err)
	}
	if verifyLog(path, f.Tables()+" ", 1) == nil {
		t.Error("tables mismatch passed")
	}
	if verifyLog(path, f.Tables(), 2) == nil {
		t.Error("record count mismatch passed")
	}
}

// TestReplayCheckDetectsMismatch checks warm-replay's byte-identity
// check rejects a replayed job whose output differs from the cold run.
func TestReplayCheckDetectsMismatch(t *testing.T) {
	e := &serviceEnv{mode: modeReplay, points: 1, keep: 1,
		expect: map[string]coldResult{"d": {results: []byte(`[1]`), report: "r"}}}
	j := &jobResult{idx: 0, commits: []time.Duration{1}}
	if err := e.finish(j, "d", 1, []byte(`[1]`), "r", "", 1, 0, ""); err != nil {
		t.Fatalf("identical replay: %v", err)
	}
	if e.finish(j, "d", 1, []byte(`[2]`), "r", "", 1, 0, "") == nil {
		t.Error("differing results passed")
	}
	if e.finish(j, "d", 1, []byte(`[1]`), "r", "", 0, 1, "") == nil {
		t.Error("a recomputed point passed as a replay")
	}
}
