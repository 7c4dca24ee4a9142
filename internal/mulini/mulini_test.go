package mulini

import (
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/spec"
)

func testExperiment(t *testing.T, topo string) *spec.Experiment {
	t.Helper()
	doc, err := spec.Parse(`experiment "rubis-test" {
		benchmark rubis;
		platform emulab;
		appserver jonas;
		topologies ` + topo + `;
		workload { users 100 to 300 step 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Experiments[0]
}

func testGenerator(t *testing.T) *Generator {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func generate122(t *testing.T) *Deployment {
	t.Helper()
	g := testGenerator(t)
	ds, err := g.Generate(testExperiment(t, "1-2-2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("deployments = %d", len(ds))
	}
	return ds[0]
}

func TestResolveAssignments(t *testing.T) {
	d := generate122(t)
	// 1 web + 2 app + 2 db + 1 client = 6 machines (paper §III.C: "two
	// machines for the application server tier and another 2 for the
	// database tier")
	if d.MachineCount() != 6 {
		t.Fatalf("machines = %d, want 6", d.MachineCount())
	}
	if got := d.Roles("app"); len(got) != 2 || got[0] != "JONAS1" || got[1] != "JONAS2" {
		t.Fatalf("app roles = %v", got)
	}
	if got := d.Roles("db"); len(got) != 2 || got[0] != "MYSQL1" {
		t.Fatalf("db roles = %v", got)
	}
	// C-JDBC controller co-located with MYSQL1 when replicated.
	m1, _ := d.Find("MYSQL1")
	found := false
	for _, p := range m1.Packages {
		if p.Name == "cjdbc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("MYSQL1 should carry the C-JDBC controller: %+v", m1.Packages)
	}
	m2, _ := d.Find("MYSQL2")
	for _, p := range m2.Packages {
		if p.Name == "cjdbc" {
			t.Fatalf("MYSQL2 should not carry the controller")
		}
	}
	// Emulab allocation defaults: db pinned to the slow nodes.
	if m1.NodeType != "low-end" {
		t.Fatalf("db node type = %q, want low-end (paper §IV.A)", m1.NodeType)
	}
	app, _ := d.Find("JONAS1")
	if app.NodeType != "high-end" {
		t.Fatalf("app node type = %q", app.NodeType)
	}
}

func TestSingleDBHasNoController(t *testing.T) {
	g := testGenerator(t)
	ds, err := g.Generate(testExperiment(t, "1-1-1"))
	if err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	m1, _ := d.Find("MYSQL1")
	for _, p := range m1.Packages {
		if p.Name == "cjdbc" {
			t.Fatalf("1-1-1 should not deploy C-JDBC")
		}
	}
	if _, ok := d.Bundle.Get("mysqldb-raidb1-elba.xml"); ok {
		t.Fatalf("1-1-1 should not generate the RAIDb config")
	}
}

// TestGeneratedScriptsMatchPaperTable4 verifies the generated script set
// includes the paper's examples with plausible sizes.
func TestGeneratedScriptsMatchPaperTable4(t *testing.T) {
	d := generate122(t)
	b := d.Bundle
	wantScripts := []string{
		"run.sh",
		"JONAS1_install.sh", "JONAS1_configure.sh", "JONAS1_ignition.sh", "JONAS1_stop.sh",
		"SYS_MON_JONAS1_install.sh", "SYS_MON_JONAS1_ignition.sh",
		"MYSQL2_install.sh", "APACHE1_ignition.sh", "CLIENT1_install.sh",
		"teardown.sh",
	}
	for _, p := range wantScripts {
		a, ok := b.Get(p)
		if !ok {
			t.Errorf("missing generated script %s", p)
			continue
		}
		if a.Kind != Script {
			t.Errorf("%s kind = %v", p, a.Kind)
		}
		if a.Lines() < 10 {
			t.Errorf("%s suspiciously short: %d lines", p, a.Lines())
		}
	}
	run, _ := b.Get("run.sh")
	ign, _ := b.Get("JONAS1_ignition.sh")
	stop, _ := b.Get("JONAS1_stop.sh")
	inst, _ := b.Get("JONAS1_install.sh")
	// Table 4 ordering: run.sh largest; install > ignition > stop.
	if !(run.Lines() > inst.Lines() && inst.Lines() > ign.Lines() && ign.Lines() >= stop.Lines()) {
		t.Errorf("script size ordering unlike Table 4: run=%d install=%d ignition=%d stop=%d",
			run.Lines(), inst.Lines(), ign.Lines(), stop.Lines())
	}
}

// TestGeneratedConfigsMatchPaperTable5 verifies the modified configuration
// files from Table 5 exist and reference the right components.
func TestGeneratedConfigsMatchPaperTable5(t *testing.T) {
	d := generate122(t)
	b := d.Bundle

	w2, ok := b.Get("workers2.properties")
	if !ok {
		t.Fatalf("workers2.properties missing")
	}
	if !strings.Contains(w2.Content, "JONAS1") || !strings.Contains(w2.Content, "JONAS2") {
		t.Errorf("workers2.properties must list both app servers:\n%s", w2.Content)
	}

	xml, ok := b.Get("mysqldb-raidb1-elba.xml")
	if !ok {
		t.Fatalf("mysqldb-raidb1-elba.xml missing")
	}
	for _, want := range []string{"RAIDb-1", "MYSQL1", "MYSQL2", "WaitForCompletion"} {
		if !strings.Contains(xml.Content, want) {
			t.Errorf("C-JDBC config missing %q", want)
		}
	}

	ml, ok := b.Get("monitorlocal.properties")
	if !ok {
		t.Fatalf("monitorlocal.properties missing")
	}
	if ml.Lines() < 5 || ml.Lines() > 8 {
		t.Errorf("monitorlocal.properties = %d lines, Table 5 says ~6", ml.Lines())
	}

	// per-host monitor configs, one per machine
	count := 0
	for _, p := range b.Paths() {
		if strings.HasPrefix(p, "monitor_") && strings.HasSuffix(p, ".properties") {
			count++
		}
	}
	if count != d.MachineCount() {
		t.Errorf("per-host monitor configs = %d, want %d", count, d.MachineCount())
	}
}

func TestDriverPropertiesCarryWorkload(t *testing.T) {
	d := generate122(t)
	props, ok := d.Bundle.Get("rubis_client.properties")
	if !ok {
		t.Fatalf("driver properties missing")
	}
	for _, want := range []string{
		"workload_users=100 to 300 step 100",
		"workload_write_ratio_pct=15",
		"topology=1-2-2",
		"warmup_s=60",
		"run_s=300",
		"seed=",
	} {
		if !strings.Contains(props.Content, want) {
			t.Errorf("driver properties missing %q:\n%s", want, props.Content)
		}
	}
}

func TestAppServerConfPointsAtController(t *testing.T) {
	d := generate122(t)
	conf, ok := d.Bundle.Get("JONAS1_server.properties")
	if !ok {
		t.Fatalf("app server config missing")
	}
	if !strings.Contains(conf.Content, "jdbc:cjdbc://MYSQL1") {
		t.Errorf("replicated DB should route through C-JDBC:\n%s", conf.Content)
	}
	if !strings.Contains(conf.Content, "server.max_clients=350") {
		t.Errorf("connection pool missing from app config")
	}

	// Single DB connects directly.
	g := testGenerator(t)
	ds, _ := g.Generate(testExperiment(t, "1-1-1"))
	conf2, _ := ds[0].Bundle.Get("JONAS1_server.properties")
	if !strings.Contains(conf2.Content, "jdbc:mysql://MYSQL1") {
		t.Errorf("single DB should connect directly:\n%s", conf2.Content)
	}
}

func TestRunShSequencesPhases(t *testing.T) {
	d := generate122(t)
	run, _ := d.Bundle.Get("run.sh")
	c := run.Content
	// db ignition must precede app ignition, which precedes web.
	dbIdx := strings.Index(c, "bash MYSQL1_ignition.sh")
	appIdx := strings.Index(c, "bash JONAS1_ignition.sh")
	webIdx := strings.Index(c, "bash APACHE1_ignition.sh")
	clientIdx := strings.Index(c, "bash CLIENT1_ignition.sh")
	if dbIdx < 0 || appIdx < 0 || webIdx < 0 || clientIdx < 0 {
		t.Fatalf("run.sh missing ignition calls:\n%s", c)
	}
	if !(dbIdx < appIdx && appIdx < webIdx && webIdx < clientIdx) {
		t.Errorf("ignition order wrong: db=%d app=%d web=%d client=%d", dbIdx, appIdx, webIdx, clientIdx)
	}
	if !strings.Contains(c, "elbactl allocate --role MYSQL1 --type low-end") {
		t.Errorf("allocation phase missing node-type pinning")
	}
}

func TestGenerateSweepProducesPerTopologyBundles(t *testing.T) {
	g := testGenerator(t)
	e := testExperiment(t, "1-1-1, 1-2-1, 1-2-2")
	ds, err := g.Generate(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("deployments = %d", len(ds))
	}
	if ds[0].Bundle.Len() >= ds[2].Bundle.Len() {
		t.Errorf("bigger topology should yield more artifacts: %d vs %d",
			ds[0].Bundle.Len(), ds[2].Bundle.Len())
	}
	rep := Scale(ds)
	if rep.Configurations != 3 {
		t.Errorf("scale configurations = %d", rep.Configurations)
	}
	if rep.MachineCount != 4+5+6 {
		t.Errorf("machine count = %d, want 15", rep.MachineCount)
	}
	if rep.ScriptLines < 500 {
		t.Errorf("script lines = %d, implausibly few", rep.ScriptLines)
	}
	if rep.ConfigFiles == 0 || rep.ConfigLines == 0 {
		t.Errorf("config accounting empty: %+v", rep)
	}
}

func TestCapacityCheck(t *testing.T) {
	g := testGenerator(t)
	// Warp has 56 nodes; a 1-60-1 topology cannot fit.
	doc, err := spec.Parse(`experiment "too-big" {
		benchmark rubis; platform warp; appserver weblogic;
		topology { web 1; app 60; db 1; }
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(doc.Experiments[0]); err == nil {
		t.Fatalf("oversized topology should be rejected")
	}
	// Pinning to a node type the platform lacks must fail.
	doc2, err := spec.Parse(`experiment "bad-pin" {
		benchmark rubis; platform warp; appserver weblogic;
		workload { users 100; writeratio 15; }
		allocate { db low-end; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(doc2.Experiments[0]); err == nil {
		t.Fatalf("unknown node type pin should be rejected")
	}
}

func TestGenerateOne(t *testing.T) {
	g := testGenerator(t)
	e := testExperiment(t, "1-1-1")
	d, err := g.GenerateOne(e, spec.Topology{Web: 1, App: 3, DB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Topology != (spec.Topology{Web: 1, App: 3, DB: 2}) {
		t.Fatalf("topology = %v", d.Topology)
	}
	// Original experiment untouched.
	if e.Topology != (spec.Topology{Web: 1, App: 1, DB: 1}) {
		t.Fatalf("GenerateOne mutated the input experiment")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, nil); err == nil {
		t.Fatalf("nil catalog should be rejected")
	}
	g := testGenerator(t)
	if g.Backend() != "shell" {
		t.Fatalf("default backend = %q", g.Backend())
	}
}
