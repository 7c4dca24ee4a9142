package cluster

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"elba/internal/cim"
)

func emulab(t *testing.T) *Cluster {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := cat.PlatformByName("emulab")
	if !ok {
		t.Fatal("emulab platform missing")
	}
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allocate reserves the first free node of a type, failing the test if
// there is none.
func allocate(t *testing.T, c *Cluster, nodeType string) *Node {
	t.Helper()
	n, err := c.Allocate(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClusterMaterialization(t *testing.T) {
	c := emulab(t)
	if c.Size() != 256 {
		t.Fatalf("emulab size = %d, want 256", c.Size())
	}
	if c.Free("low-end") != 128 || c.Free("high-end") != 128 {
		t.Fatalf("free by type wrong: %d/%d", c.Free("low-end"), c.Free("high-end"))
	}
	n := allocate(t, c, "low-end")
	if n.Name() != "emulab-low-001" {
		t.Fatalf("node naming wrong: %s", n.Name())
	}
	if n.Pool().CPUMHz != 600 {
		t.Fatalf("low-end node MHz = %d", n.Pool().CPUMHz)
	}
}

func TestNodeSpeedScaling(t *testing.T) {
	c := emulab(t)
	low := allocate(t, c, "low-end")
	high := allocate(t, c, "high-end")
	if low.Speed() != 0.2 {
		t.Fatalf("600 MHz speed = %g, want 0.2", low.Speed())
	}
	if high.Speed() != 1.0 {
		t.Fatalf("3 GHz speed = %g, want 1.0", high.Speed())
	}
	if low.Cores() != 1 {
		t.Fatalf("cores = %d", low.Cores())
	}
}

func TestAllocateByType(t *testing.T) {
	c := emulab(t)
	db, err := c.Allocate("low-end")
	if err != nil {
		t.Fatal(err)
	}
	if db.Pool().NodeType != "low-end" || !db.Allocated() {
		t.Fatalf("allocation wrong: %+v", db)
	}
	app, err := c.Allocate("high-end")
	if err != nil {
		t.Fatal(err)
	}
	if app.Pool().CPUMHz != 3000 {
		t.Fatalf("high-end allocation got %d MHz", app.Pool().CPUMHz)
	}
	if got := len(c.Allocated()); got != 2 {
		t.Fatalf("allocated = %d", got)
	}
	if c.Free("low-end") != 127 {
		t.Fatalf("free after allocate = %d", c.Free("low-end"))
	}
}

func TestAllocateExhaustion(t *testing.T) {
	cat, _ := cim.LoadCatalog()
	p, _ := cat.PlatformByName("warp")
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 56; i++ {
		if _, err := c.Allocate(""); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := c.Allocate(""); err == nil {
		t.Fatalf("57th allocation on 56-node Warp should fail")
	}
	if _, err := c.Allocate("hyper-end"); err == nil {
		t.Fatalf("unknown node type should fail")
	}
}

func TestAllocationDeterminism(t *testing.T) {
	a, b := emulab(t), emulab(t)
	n1, _ := a.Allocate("high-end")
	n2, _ := b.Allocate("high-end")
	if n1.Name() != n2.Name() {
		t.Fatalf("allocation order not deterministic: %s vs %s", n1.Name(), n2.Name())
	}
}

func TestServiceLifecycle(t *testing.T) {
	c := emulab(t)
	n, _ := c.Allocate("high-end")

	if err := n.Configure("tomcat"); err == nil {
		t.Fatalf("configure before install should fail")
	}
	if err := n.Start("tomcat"); err == nil {
		t.Fatalf("start before install should fail")
	}
	if err := n.Install("tomcat"); err != nil {
		t.Fatal(err)
	}
	if err := n.Install("tomcat"); err == nil {
		t.Fatalf("double install should fail")
	}
	if err := n.Start("tomcat"); err == nil {
		t.Fatalf("start before configure should fail")
	}
	if err := n.Configure("tomcat"); err != nil {
		t.Fatal(err)
	}
	if err := n.Start("tomcat"); err != nil {
		t.Fatal(err)
	}
	if n.State("tomcat") != Running {
		t.Fatalf("state = %s", n.State("tomcat"))
	}
	if err := n.Start("tomcat"); err == nil {
		t.Fatalf("double start should fail")
	}
	if err := n.Configure("tomcat"); err == nil {
		t.Fatalf("configure while running should fail")
	}
	if err := n.Stop("tomcat"); err != nil {
		t.Fatal(err)
	}
	if err := n.Stop("tomcat"); err == nil {
		t.Fatalf("double stop should fail")
	}
	// restart from stopped is allowed
	if err := n.Start("tomcat"); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
	if got := n.Running(); len(got) != 1 || got[0] != "tomcat" {
		t.Fatalf("running = %v", got)
	}
}

func TestNodeFiles(t *testing.T) {
	c := emulab(t)
	n, _ := c.Allocate("high-end")
	n.WriteFile("/etc/apache/workers2.properties", "worker.list=app1")
	content, ok := n.ReadFile("/etc/apache/workers2.properties")
	if !ok || !strings.Contains(content, "app1") {
		t.Fatalf("file round trip failed")
	}
	if _, ok := n.ReadFile("/nope"); ok {
		t.Fatalf("missing file found")
	}
	if files := n.Files(); len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
}

func TestReleaseWipesState(t *testing.T) {
	c := emulab(t)
	n, _ := c.Allocate("high-end")
	if err := n.Install("tomcat"); err != nil {
		t.Fatal(err)
	}
	n.WriteFile("/tmp/x", "y")
	c.Release(n)
	if n.Allocated() || n.State("tomcat") != Absent || len(n.Files()) != 0 {
		t.Fatalf("release did not wipe node state")
	}
}

func TestNewRequiresPools(t *testing.T) {
	if _, err := New(cim.Platform{Name: "empty"}); err == nil {
		t.Fatalf("platform without pools should be rejected")
	}
}

func TestStringers(t *testing.T) {
	c := emulab(t)
	if !strings.Contains(c.String(), "emulab") {
		t.Fatalf("cluster string = %q", c.String())
	}
	if Running.String() != "running" || Absent.String() != "absent" {
		t.Fatalf("state strings wrong")
	}
	if ServiceState(99).String() == "" {
		t.Fatalf("unknown state should render")
	}
}

// TestAllocationInvariantProperty: after any sequence of allocations and
// releases, free + allocated == total and no node is double-allocated.
func TestAllocationInvariantProperty(t *testing.T) {
	f := func(ops []byte) bool {
		c := emulabForQuick()
		if c == nil {
			return false
		}
		var held []*Node
		for _, op := range ops {
			if op%3 != 0 || len(held) == 0 {
				types := []string{"low-end", "high-end", ""}
				n, err := c.Allocate(types[int(op)%len(types)])
				if err == nil {
					held = append(held, n)
				}
			} else {
				idx := int(op) % len(held)
				c.Release(held[idx])
				held = append(held[:idx], held[idx+1:]...)
			}
			if c.Free("")+len(c.Allocated()) != c.Size() {
				return false
			}
		}
		seen := map[string]bool{}
		for _, n := range c.Allocated() {
			if seen[n.Name()] {
				return false
			}
			seen[n.Name()] = true
		}
		return len(c.Allocated()) == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// emulabForQuick builds a cluster outside testing.T helpers for
// property-function use.
func emulabForQuick() *Cluster {
	cat, err := cim.LoadCatalog()
	if err != nil {
		return nil
	}
	p, ok := cat.PlatformByName("emulab")
	if !ok {
		return nil
	}
	c, err := New(p)
	if err != nil {
		return nil
	}
	return c
}

// Running lists services currently running, sorted.
func (n *Node) Running() []string {
	var out []string
	for svc, st := range n.services {
		if st == Running {
			out = append(out, svc)
		}
	}
	sort.Strings(out)
	return out
}

// Files lists written file paths, sorted.
func (n *Node) Files() []string {
	out := make([]string, 0, len(n.files))
	for p := range n.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Free reports the number of unallocated nodes, optionally filtered by
// node type ("" = any). Nodes not yet created are free.
func (c *Cluster) Free(nodeType string) int {
	n := 0
	for i, pool := range c.platform.Pools {
		if nodeType != "" && pool.NodeType != nodeType {
			continue
		}
		n += max(pool.NodeCount, 0)
		for _, node := range c.created[i] {
			if node.allocated {
				n--
			}
		}
	}
	return n
}
