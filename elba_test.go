package elba

import (
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// quickstart example does: parse TBL, run, extract, render.
func TestPublicAPIEndToEnd(t *testing.T) {
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunTBL(`experiment "api" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-1-1, 1-2-1;
		workload { users 100 to 200 step 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Results().RTvsUsers("api", "1-1-1", 15)
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	out := RenderSeries("Figure", "users", "ms", []Series{{Name: "1-1-1", Points: pts}})
	if !strings.Contains(out, "1-1-1") {
		t.Fatalf("render failed:\n%s", out)
	}
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderTable2(cat), "emulab") {
		t.Fatalf("table 2 render failed")
	}
	rows := c.ScaleRows(FigureOf)
	if !strings.Contains(RenderTable3(rows), "api") {
		t.Fatalf("table 3 render failed")
	}
}

func TestPublicBottleneckHelpers(t *testing.T) {
	r := Result{Completed: true, TierCPU: map[string]float64{"app": 95, "db": 20}}
	if v := DetectBottleneck(r); v.Tier != "app" {
		t.Fatalf("verdict = %+v", v)
	}
	if got := Improvement(100, 50); got != 50 {
		t.Fatalf("improvement = %g", got)
	}
	pts := []SeriesPoint{{X: 100, Y: 40, OK: true}, {X: 200, Y: 500, OK: true}}
	if x, ok := SaturationUsers(pts, 3); !ok || x != 200 {
		t.Fatalf("saturation = %g %v", x, ok)
	}
}

func TestPublicParseHelpers(t *testing.T) {
	doc, err := ParseTBL(ReducedSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 5 {
		t.Fatalf("reduced suite = %d experiments", len(doc.Experiments))
	}
	topo, err := ParseTopology("1-8-2")
	if err != nil || topo.App != 8 {
		t.Fatalf("ParseTopology failed: %v %v", topo, err)
	}
	if err := ValidateExperiment(doc.Experiments[0]); err != nil {
		t.Fatalf("suite experiment invalid: %v", err)
	}
	if _, err := ParseTBL(PaperSuite()); err != nil {
		t.Fatalf("paper suite invalid: %v", err)
	}
}

func TestPublicGenerationSurface(t *testing.T) {
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseTBL(ReducedSuite())
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.GenerateBundle(doc.Experiments[0], Topology{Web: 1, App: 2, DB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderTable4(d.Bundle), "run.sh") {
		t.Fatalf("table 4 render failed")
	}
	if !strings.Contains(RenderTable5(d.Bundle), "workers2.properties") {
		t.Fatalf("table 5 render failed")
	}
}

// TestPublicPrediction exercises the analytical cross-check from the
// public API: below saturation the MVA prediction and the observed trial
// agree on throughput.
func TestPublicPrediction(t *testing.T) {
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := `experiment "pred" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 120; writeratio 15; }
	}`
	if err := c.RunTBL(tbl); err != nil {
		t.Fatal(err)
	}
	doc, _ := ParseTBL(tbl)
	pred, err := c.Predict(doc.Experiments[0], Topology{Web: 1, App: 1, DB: 1}, 15, 120)
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := c.Results().Get(Key{Experiment: "pred", Topology: "1-1-1", Users: 120, WriteRatioPct: 15})
	rel := (pred.Throughput - obs.Throughput) / obs.Throughput
	if rel < -0.15 || rel > 0.15 {
		t.Fatalf("prediction off: %.2f vs %.2f req/s", pred.Throughput, obs.Throughput)
	}
	if u := pred.TierUtilization; u["app"] <= u["web"] || u["app"] <= u["db"] {
		t.Fatalf("predicted utilization %v: app is not the bottleneck", u)
	}
}

func TestPublicChartAndStaging(t *testing.T) {
	out := RenderChart("demo", "users", "ms", []Series{{
		Name: "s", Points: []SeriesPoint{{X: 1, Y: 10, OK: true}, {X: 2, Y: 30, OK: true}},
	}})
	if !strings.Contains(out, "* s") {
		t.Fatalf("chart legend missing:\n%s", out)
	}
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseTBL(ReducedSuite())
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.GenerateBundle(doc.Experiments[0], Topology{Web: 1, App: 2, DB: 1})
	if err != nil {
		t.Fatal(err)
	}
	issues := ValidateBundle(d.Bundle)
	if len(StagingErrors(issues)) != 0 {
		t.Fatalf("generated bundle has staging errors: %v", issues)
	}
	breakdown := RenderInteractionBreakdown(Result{
		Key:            Key{Experiment: "x", Topology: "1-1-1"},
		PerInteraction: map[string]float64{"Home": 10},
	})
	if !strings.Contains(breakdown, "Home") {
		t.Fatalf("breakdown render failed")
	}
}
