package spec

import (
	"slices"
	"strings"
	"testing"
)

const sampleTBL = `
# RUBiS baseline on Emulab, as in the paper's Figure 1.
experiment "rubis-baseline-jonas" {
	benchmark rubis;
	platform  emulab;
	appserver jonas;
	topology  { web 1; app 1; db 1; }
	workload  {
		users 50 to 250 step 50;
		writeratio 0 to 90 step 10;
	}
	trial { warmup 60s; run 300s; cooldown 60s; }
	slo   { avg 1000ms; p90 2000ms; }
	monitor { interval 5s; metrics cpu, memory, network, disk; }
	seed 42;
}
`

func parseOne(t *testing.T, src string) *Experiment {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(doc.Experiments))
	}
	return doc.Experiments[0]
}

func TestParseFullExperiment(t *testing.T) {
	e := parseOne(t, sampleTBL)
	if e.Name != "rubis-baseline-jonas" || e.Benchmark != "rubis" || e.Platform != "emulab" {
		t.Fatalf("header wrong: %+v", e)
	}
	if e.AppServer != "jonas" {
		t.Fatalf("appserver = %q", e.AppServer)
	}
	if e.Topology != (Topology{Web: 1, App: 1, DB: 1}) {
		t.Fatalf("topology = %v", e.Topology)
	}
	if e.Workload.Users != (Range{Lo: 50, Hi: 250, Step: 50}) {
		t.Fatalf("users = %v", e.Workload.Users)
	}
	if e.Workload.WriteRatioPct != (Range{Lo: 0, Hi: 90, Step: 10}) {
		t.Fatalf("writeratio = %v", e.Workload.WriteRatioPct)
	}
	if e.Trial != (Trial{WarmupSec: 60, RunSec: 300, CooldownSec: 60}) {
		t.Fatalf("trial = %v", e.Trial)
	}
	if e.SLO.AvgMS != 1000 || e.SLO.P90MS != 2000 {
		t.Fatalf("slo = %v", e.SLO)
	}
	if e.Monitor.IntervalSec != 5 || !slices.Contains(e.Monitor.Metrics, "disk") || slices.Contains(e.Monitor.Metrics, "gpu") {
		t.Fatalf("monitor = %v", e.Monitor)
	}
	if e.Seed != 42 {
		t.Fatalf("seed = %d", e.Seed)
	}
	// 5 user points × 10 write ratios × 1 topology
	if got := e.TrialCount(); got != 50 {
		t.Fatalf("trial count = %d, want 50", got)
	}
}

func TestParseDefaults(t *testing.T) {
	e := parseOne(t, `experiment "min" {
		benchmark rubis;
		platform emulab;
		workload { users 100; }
	}`)
	if e.Trial != (Trial{WarmupSec: 60, RunSec: 300, CooldownSec: 60}) {
		t.Fatalf("RUBiS default trial = %v", e.Trial)
	}
	if e.AppServer != "jonas" {
		t.Fatalf("default appserver = %q", e.AppServer)
	}
	if e.Workload.TimeoutSec != 30 {
		t.Fatalf("default timeout = %g", e.Workload.TimeoutSec)
	}
	if e.Topology != (Topology{1, 1, 1}) {
		t.Fatalf("default topology = %v", e.Topology)
	}
	if e.Seed == 0 {
		t.Fatalf("seed should default to name hash")
	}
	if e.Allocate["db"] != "low-end" || e.Allocate["app"] != "high-end" {
		t.Fatalf("emulab allocation defaults wrong: %v", e.Allocate)
	}
	if len(e.Monitor.Metrics) != 4 {
		t.Fatalf("default metrics = %v", e.Monitor.Metrics)
	}
}

func TestParseRubbosDefaults(t *testing.T) {
	e := parseOne(t, `experiment "rb" {
		benchmark rubbos;
		platform emulab;
		workload { users 500 to 5000 step 500; }
	}`)
	if e.Trial != (Trial{WarmupSec: 150, RunSec: 900, CooldownSec: 150}) {
		t.Fatalf("RUBBoS default trial = %v (paper §III.B)", e.Trial)
	}
	if e.Mix != "submission" {
		t.Fatalf("default mix = %q", e.Mix)
	}
}

func TestParseTopologiesSweep(t *testing.T) {
	e := parseOne(t, `experiment "scaleout" {
		benchmark rubis;
		platform emulab;
		topologies 1-2-1, 1-2-2, 1-3-1;
		workload { users 100 to 300 step 100; writeratio 15; }
	}`)
	if len(e.Topologies) != 3 {
		t.Fatalf("topologies = %v", e.Topologies)
	}
	if e.Topologies[1] != (Topology{1, 2, 2}) {
		t.Fatalf("topologies[1] = %v", e.Topologies[1])
	}
	if e.TrialCount() != 9 {
		t.Fatalf("trial count = %d, want 9", e.TrialCount())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty doc", ``, "no experiments"},
		{"unknown benchmark", `experiment "x" { benchmark foo; platform emulab; workload { users 1; } }`, "unknown benchmark"},
		{"unknown platform", `experiment "x" { benchmark rubis; platform moon; workload { users 1; } }`, "unknown platform"},
		{"wrong appserver", `experiment "x" { benchmark rubbos; platform emulab; appserver weblogic; workload { users 1; } }`, "not available"},
		{"no users", `experiment "x" { benchmark rubis; platform emulab; }`, "at least one user"},
		{"write ratio range", `experiment "x" { benchmark rubis; platform emulab; workload { users 1; writeratio 95; } }`, "0–90"},
		{"zero tier", `experiment "x" { benchmark rubis; platform emulab; topology { web 1; app 0; db 1; } workload { users 1; } }`, "at least one server"},
		{"bad clause", `experiment "x" { frobnicate y; }`, "unknown clause"},
		{"bad duration", `experiment "x" { benchmark rubis; platform emulab; workload { users 1; } trial { warmup 60; run 300s; cooldown 60s; } }`, "unit"},
		{"bad range", `experiment "x" { benchmark rubis; platform emulab; workload { users 250 to 50 step 50; } }`, "below lower bound"},
		{"zero step", `experiment "x" { benchmark rubis; platform emulab; workload { users 50 to 250 step 0; } }`, "step must be positive"},
		{"bad topology triple", `experiment "x" { benchmark rubis; platform emulab; topologies 1-2; workload { users 1; } }`, "w-a-d"},
		{"unknown metric", `experiment "x" { benchmark rubis; platform emulab; workload { users 1; } monitor { interval 5s; metrics gpu; } }`, "metric"},
		{"unterminated string", `experiment "x { }`, "unterminated"},
		{"read-only with writes", `experiment "x" { benchmark rubbos; platform emulab; mix read-only; workload { users 1; writeratio 15; } }`, "read-only mix"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseErrorNamesLine(t *testing.T) {
	src := "experiment \"x\" {\n\tbenchmark rubis;\n\tbogus y;\n}"
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should name line 3: %v", err)
	}
}

func TestRangeValues(t *testing.T) {
	r := Range{Lo: 50, Hi: 250, Step: 50}
	vals := r.Values()
	if len(vals) != 5 || vals[0] != 50 || vals[4] != 250 {
		t.Fatalf("values = %v", vals)
	}
	fixed := Range{Lo: 15, Hi: 15}
	if !fixed.Fixed() || len(fixed.Values()) != 1 {
		t.Fatalf("fixed range wrong")
	}
	if fixed.String() != "15" || r.String() != "50 to 250 step 50" {
		t.Fatalf("range strings: %q %q", fixed.String(), r.String())
	}
}

func TestTopologyHelpers(t *testing.T) {
	tp := Topology{1, 8, 2}
	if tp.String() != "1-8-2" || tp.Nodes() != 11 {
		t.Fatalf("topology helpers wrong: %s %d", tp.String(), tp.Nodes())
	}
	parsed, err := ParseTopology("1-8-2")
	if err != nil || parsed != tp {
		t.Fatalf("ParseTopology = %v, %v", parsed, err)
	}
	if _, err := ParseTopology("a-b-c"); err == nil {
		t.Fatalf("bad triple accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	e := parseOne(t, sampleTBL)
	re := parseOne(t, e.String())
	if re.Name != e.Name || re.Workload != e.Workload || re.Trial != e.Trial ||
		re.SLO != e.SLO || re.Topology != e.Topology || re.Seed != e.Seed {
		t.Fatalf("round trip changed experiment:\n%+v\n%+v", e, re)
	}
}

func TestRoundTripTopologies(t *testing.T) {
	src := `experiment "s" {
		benchmark rubis; platform emulab;
		topologies 1-2-1, 1-3-2;
		workload { users 100; writeratio 15; }
	}`
	e := parseOne(t, src)
	re := parseOne(t, e.String())
	if len(re.Topologies) != 2 || re.Topologies[1] != e.Topologies[1] {
		t.Fatalf("topologies did not round trip: %v", re.Topologies)
	}
}

func TestValidateDirect(t *testing.T) {
	e := &Experiment{
		Name: "prog", Benchmark: "rubis", Platform: "warp", AppServer: "weblogic",
		Topology: Topology{1, 1, 1},
		Workload: Workload{Users: Range{Lo: 100, Hi: 100}},
		Trial:    Trial{WarmupSec: 60, RunSec: 300, CooldownSec: 60},
		Monitor:  Monitor{IntervalSec: 5, Metrics: []string{"cpu"}},
	}
	if err := Validate(e); err != nil {
		t.Fatalf("programmatic experiment invalid: %v", err)
	}
	e.Allocate = map[string]string{"cache": "x"}
	if err := Validate(e); err == nil {
		t.Fatalf("unknown allocate tier accepted")
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("abc") != hashName("abc") {
		t.Fatalf("hash not deterministic")
	}
	if hashName("abc") == hashName("abd") {
		t.Fatalf("suspicious hash collision")
	}
	if hashName("") == 0 {
		t.Fatalf("hash of empty string must not be zero seed")
	}
}

func TestCommentsAndHash(t *testing.T) {
	e := parseOne(t, `
// line comment
# hash comment
experiment "c" {
	benchmark rubis; // trailing
	platform emulab;
	workload { users 5; } # trailing hash
}`)
	if e.Name != "c" {
		t.Fatalf("comment handling broke parse")
	}
}

func TestParseFaults(t *testing.T) {
	e := parseOne(t, `experiment "f" {
		benchmark rubis; platform emulab;
		workload { users 100; writeratio 15; }
		trial { warmup 60s; run 300s; cooldown 60s; }
		faults { JONAS1 at 100s for 60s; MYSQL1 at 200s for 30s; }
	}`)
	if len(e.Faults) != 2 {
		t.Fatalf("faults = %v", e.Faults)
	}
	if e.Faults[0] != (Fault{Role: "JONAS1", AtSec: 100, DurationSec: 60}) {
		t.Fatalf("fault[0] = %+v", e.Faults[0])
	}
	// Round trip.
	re := parseOne(t, e.String())
	if len(re.Faults) != 2 || re.Faults[1] != e.Faults[1] {
		t.Fatalf("faults did not round trip: %v", re.Faults)
	}
}

func TestParseFaultErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing at", `experiment "f" { benchmark rubis; platform emulab;
			workload { users 1; } faults { X for 10s; } }`},
		{"missing for", `experiment "f" { benchmark rubis; platform emulab;
			workload { users 1; } faults { X at 10s; } }`},
		{"past run period", `experiment "f" { benchmark rubis; platform emulab;
			workload { users 1; } trial { warmup 1s; run 10s; cooldown 1s; }
			faults { X at 5s for 60s; } }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRepeatRoundTrip(t *testing.T) {
	e := parseOne(t, `experiment "rep" {
		benchmark rubis; platform emulab;
		workload { users 100; writeratio 15; }
		repeat 3;
	}`)
	if e.Repeat != 3 {
		t.Fatalf("repeat = %d", e.Repeat)
	}
	re := parseOne(t, e.String())
	if re.Repeat != 3 {
		t.Fatalf("repeat did not round trip: %d", re.Repeat)
	}
}
