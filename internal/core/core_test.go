package core

import (
	"strings"
	"testing"

	"elba/internal/experiment"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

func fastCharacterizer(t *testing.T) *Characterizer {
	t.Helper()
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunTBLAccumulatesEverything(t *testing.T) {
	c := fastCharacterizer(t)
	err := c.RunTBL(`
experiment "tiny" {
	benchmark rubis; platform emulab; appserver jonas;
	topologies 1-1-1, 1-2-1;
	workload { users 100 to 200 step 100; writeratio 15; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Results().Len(); got != 4 {
		t.Fatalf("results = %d, want 4", got)
	}
	if c.collected["tiny"] == 0 {
		t.Fatalf("no monitoring bytes accounted")
	}
	rows := c.ScaleRows(FigureOf)
	if len(rows) != 1 || rows[0].Set != "tiny" {
		t.Fatalf("scale rows = %+v", rows)
	}
	if rows[0].Scale.Configurations != 2 || rows[0].Scale.ScriptLines == 0 {
		t.Fatalf("scale accounting empty: %+v", rows[0].Scale)
	}
	// Rows render into Table 3.
	if out := report.Table3Scale(rows); !strings.Contains(out, "tiny") {
		t.Fatalf("table 3 missing set:\n%s", out)
	}
}

func TestRunTBLPropagatesParseErrors(t *testing.T) {
	c := fastCharacterizer(t)
	if err := c.RunTBL(`experiment "bad" {`); err == nil {
		t.Fatalf("parse error swallowed")
	}
	if err := c.RunTBL(`experiment "bad" { benchmark nope; platform emulab; workload { users 1; } }`); err == nil {
		t.Fatalf("validation error swallowed")
	}
}

func TestGenerateBundleOnly(t *testing.T) {
	c := fastCharacterizer(t)
	doc, err := spec.Parse(RubisBaselineJOnASTBL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.GenerateBundle(doc.Experiments[0], spec.Topology{Web: 1, App: 2, DB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bundle == nil || d.Bundle.Len() == 0 {
		t.Fatalf("no bundle generated")
	}
	if _, ok := d.Bundle.Get("mysqldb-raidb1-elba.xml"); !ok {
		t.Fatalf("bundle missing the C-JDBC config")
	}
	// Generation-only runs record nothing.
	if c.Results().Len() != 0 {
		t.Fatalf("generation should not run trials")
	}
}

func TestPaperSuiteParses(t *testing.T) {
	doc, err := spec.Parse(PaperSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 5 {
		t.Fatalf("paper suite has %d experiments, want 5", len(doc.Experiments))
	}
	var scaleout *spec.Experiment
	for _, e := range doc.Experiments {
		if e.Name == "rubis-scaleout-jonas" {
			scaleout = e
		}
	}
	if scaleout == nil {
		t.Fatalf("scale-out set missing")
	}
	// 1-a-d for a=1..12, d=1..3 → 36 configurations.
	if got := len(scaleout.AllTopologies()); got != 36 {
		t.Fatalf("scale-out topologies = %d, want 36", got)
	}
	// The full suite is big: hundreds of trials.
	total := 0
	for _, e := range doc.Experiments {
		total += e.TrialCount()
	}
	if total < 500 {
		t.Fatalf("paper suite totals %d trials; expected hundreds", total)
	}
}

func TestReducedSuiteParses(t *testing.T) {
	doc, err := spec.Parse(ReducedSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 5 {
		t.Fatalf("reduced suite has %d experiments", len(doc.Experiments))
	}
}

func TestScaleoutTopologies(t *testing.T) {
	topos := ScaleoutTopologies(2, 4, 2)
	if len(topos) != 6 {
		t.Fatalf("topologies = %v", topos)
	}
	if topos[0] != (spec.Topology{Web: 1, App: 2, DB: 1}) {
		t.Fatalf("first = %v", topos[0])
	}
}

func TestFigureOf(t *testing.T) {
	if FigureOf("rubis-baseline-jonas") != "Figures 1-2" || FigureOf("zzz") != "" {
		t.Fatalf("figure mapping wrong")
	}
}

func TestCapacityPlanning(t *testing.T) {
	c := fastCharacterizer(t)
	err := c.RunTBL(`
experiment "cap" {
	benchmark rubis; platform emulab; appserver jonas;
	topologies 1-1-1, 1-2-1, 1-3-1;
	workload { users 500; writeratio 15; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	// At 500 users one app server is over its session cap; 2–3 servers
	// meet a 1 s SLO. The planner must pick the smallest adequate config.
	topo, res, err := c.Capacity("cap", 500, 15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if topo.App < 2 {
		t.Fatalf("capacity picked %s, which cannot hold 500 users", topo)
	}
	if topo.App != 2 {
		t.Fatalf("capacity picked %s; 1-2-1 should suffice (RT %.0f ms)", topo, res.AvgRTms)
	}
	// Impossible SLO errors.
	if _, _, err := c.Capacity("cap", 500, 15, 0.001); err == nil {
		t.Fatalf("impossible SLO should error")
	}
}

func TestScaleOutThroughCore(t *testing.T) {
	c := fastCharacterizer(t)
	doc, err := spec.Parse(`experiment "so" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := c.ScaleOut(doc.Experiments[0], experiment.ScaleOutOptions{
		LoadStep: 200, MaxUsers: 400, MaxApp: 3, MaxDB: 2, SLOms: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatalf("no steps")
	}
	// Every trial runs at the spec's write ratio.
	for _, r := range c.Results().All() {
		if r.Key.WriteRatioPct != 15 {
			t.Errorf("scale-out stored %s, want w=15%%", r.Key)
		}
	}
}

func TestOnTrialForwarding(t *testing.T) {
	var seen []store.Result
	c, err := New(Options{TimeScale: 0.1, OnTrial: func(r store.Result) { seen = append(seen, r) }})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunTBL(`experiment "cb" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 60; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("callback fired %d times", len(seen))
	}
}

// keyFor is a test helper building a store key.
func keyFor(exp, topo string, users int, wr float64) store.Key {
	return store.Key{Experiment: exp, Topology: topo, Users: users, WriteRatioPct: wr}
}
