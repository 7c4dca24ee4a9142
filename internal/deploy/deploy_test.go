package deploy

import (
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/mulini"
	"elba/internal/spec"
)

func testSetup(t *testing.T, topologies string) (*cluster.Cluster, *mulini.Deployment) {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := cat.PlatformByName("emulab")
	c, err := cluster.New(platform)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(`experiment "deploy-test" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies ` + topologies + `;
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.Generate(doc.Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	return c, ds[0]
}

func TestDeployRunsGeneratedScripts(t *testing.T) {
	c, d := testSetup(t, "1-2-2")
	p, err := NewDeployer(c).Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	// 6 machines allocated.
	if len(p.Nodes) != 6 {
		t.Fatalf("nodes bound = %d", len(p.Nodes))
	}
	// Database pinned to low-end nodes per the Emulab defaults.
	for _, n := range p.TierNodes("db") {
		if n.Pool().NodeType != "low-end" {
			t.Errorf("db on %s (%s), want low-end", n.Name(), n.Pool().NodeType)
		}
		if n.State("mysql") != cluster.Running {
			t.Errorf("mysql not running on %s", n.Name())
		}
		if n.State("sysstat") != cluster.Running {
			t.Errorf("sysstat monitor not running on %s", n.Name())
		}
	}
	// App servers on high-end nodes with the server.properties pushed.
	apps := p.TierNodes("app")
	if len(apps) != 2 {
		t.Fatalf("app nodes = %d", len(apps))
	}
	conf, ok := apps[0].ReadFile("/opt/jonas/conf/server.properties")
	if !ok || !strings.Contains(conf, "jdbc:cjdbc://MYSQL1") {
		t.Errorf("app server config not pushed or wrong: %q", conf)
	}
	// C-JDBC controller running on the first DB node only.
	dbs := p.TierNodes("db")
	if dbs[0].State("cjdbc") != cluster.Running {
		t.Errorf("cjdbc not running on first db node")
	}
	if dbs[1].State("cjdbc") != cluster.Absent {
		t.Errorf("cjdbc should be absent from second db node")
	}
	// The web node received workers2.properties naming both app servers.
	web := p.TierNodes("web")[0]
	w2, ok := web.ReadFile("/etc/httpd/conf/workers2.properties")
	if !ok || !strings.Contains(w2, "JONAS2") {
		t.Errorf("workers2.properties not deployed: %q", w2)
	}
}

func TestUndeployReleasesEverything(t *testing.T) {
	c, d := testSetup(t, "1-1-1")
	dp := NewDeployer(c)
	p, err := dp.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Allocated()); got != 4 {
		t.Fatalf("allocated = %d", got)
	}
	if err := dp.Undeploy(p); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Allocated()); got != 0 {
		t.Fatalf("teardown left %d nodes allocated", got)
	}
}

func TestDeployTwiceReusesCluster(t *testing.T) {
	c, d := testSetup(t, "1-1-1")
	dp := NewDeployer(c)
	p, err := dp.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Undeploy(p); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Deploy(d); err != nil {
		t.Fatalf("second deploy after teardown failed: %v", err)
	}
}

// TestEngineAppliesEveryVerb executes a generated 1-1-1 bundle and checks
// each elbactl verb's effect on the cluster: four roles allocated, every
// node's monitor installed, configured and started, and configuration
// files pushed.
func TestEngineAppliesEveryVerb(t *testing.T) {
	c, d := testSetup(t, "1-1-1")
	eng := NewEngine(c)
	if err := eng.Execute(d.Bundle, "run.sh"); err != nil {
		t.Fatal(err)
	}
	// 4 allocations (web, app, db, client).
	if len(eng.roles) != 4 || len(c.Allocated()) != 4 {
		t.Fatalf("roles = %d, allocated nodes = %d, want 4", len(eng.roles), len(c.Allocated()))
	}
	web, ok := eng.Node("APACHE1")
	if !ok {
		t.Fatalf("APACHE1 not bound")
	}
	for role, n := range eng.roles {
		if n.State("sysstat") != cluster.Running {
			t.Errorf("%s: sysstat %s, want running", role, n.State("sysstat"))
		}
	}
	if _, ok := web.ReadFile("/etc/httpd/conf/workers2.properties"); !ok {
		t.Errorf("workers2.properties not pushed to the web node")
	}
}

func TestEngineErrors(t *testing.T) {
	c, d := testSetup(t, "1-1-1")
	eng := NewEngine(c)
	if err := eng.Execute(d.Bundle, "nope.sh"); err == nil {
		t.Errorf("missing entry script should fail")
	}
	// Config artifacts are not executable.
	if err := eng.Execute(d.Bundle, "workers2.properties"); err == nil {
		t.Errorf("executing a config artifact should fail")
	}
}

func badBundle(t *testing.T, lines ...string) *mulini.Bundle {
	t.Helper()
	b := mulini.NewBundle()
	if err := b.Add(mulini.Artifact{
		Path: "run.sh", Kind: mulini.Script,
		Content: strings.Join(lines, "\n") + "\n",
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEngineRejectsMalformedCommands(t *testing.T) {
	cat, _ := cim.LoadCatalog()
	platform, _ := cat.PlatformByName("warp")
	cases := [][]string{
		{`elbactl`},
		{`elbactl install --package x`},                                  // no role
		{`elbactl bogus --role A`},                                       // unknown verb
		{`elbactl allocate --role`},                                      // flag without value
		{`elbactl allocate --role A --type`},                             // trailing flag
		{`elbactl allocate --role A`, `elbactl allocate --role A`},       // dup role
		{`elbactl install --role A --package x`},                         // unallocated role
		{`elbactl allocate --role A`, `elbactl push --role A --file /x`}, // missing artifact flag
		{`elbactl allocate --role A`, `elbactl push --role A --file /x --artifact nope`},
		{`elbactl allocate --role A`, `elbactl start --role A`}, // missing service
		{`elbactl allocate --role A`, `elbactl install --role A --version "unterminated`},
		{`elbactl release --role Z`}, // unbound release
		{`bash run.sh`},              // infinite recursion capped
	}
	for i, lines := range cases {
		c, err := cluster.New(platform)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(c)
		if err := eng.Execute(badBundle(t, lines...), "run.sh"); err == nil {
			t.Errorf("case %d (%v): expected error", i, lines)
		}
	}
}

func TestEngineErrorIncludesProvenance(t *testing.T) {
	cat, _ := cim.LoadCatalog()
	platform, _ := cat.PlatformByName("warp")
	c, _ := cluster.New(platform)
	b := badBundle(t, "# comment", "elbactl install --role A --package x")
	err := NewEngine(c).Execute(b, "run.sh")
	if err == nil || !strings.Contains(err.Error(), "run.sh:2") {
		t.Fatalf("error should cite run.sh:2, got %v", err)
	}
}

func TestSplitWords(t *testing.T) {
	words, err := splitWords(`elbactl install --version "4.1 Max" --x y`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"elbactl", "install", "--version", "4.1 Max", "--x", "y"}
	if len(words) != len(want) {
		t.Fatalf("words = %v", words)
	}
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("words[%d] = %q, want %q", i, words[i], want[i])
		}
	}
}

// TierNodes lists nodes for a tier in replica order.
func (p *Placement) TierNodes(tier string) []*cluster.Node {
	var out []*cluster.Node
	for _, role := range p.Deployment.Roles(tier) {
		if n, ok := p.Nodes[role]; ok {
			out = append(out, n)
		}
	}
	return out
}
