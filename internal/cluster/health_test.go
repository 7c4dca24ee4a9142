package cluster

import "testing"

func TestNodeHealthLifecycle(t *testing.T) {
	c := emulab(t)
	n, _ := c.byName["emulab-high-001"]
	if n.health != Healthy || n.Degradation() != 1 || n.EffectiveSpeed() != n.Speed() {
		t.Fatalf("fresh node not healthy at full speed: %v %g", n.health, n.Degradation())
	}

	n.Degrade(0.5)
	if n.health != Degraded || n.Degradation() != 0.5 {
		t.Fatalf("after Degrade(0.5): health=%v factor=%g", n.health, n.Degradation())
	}
	if got, want := n.EffectiveSpeed(), n.Speed()*0.5; got != want {
		t.Fatalf("effective speed = %g, want %g", got, want)
	}

	n.MarkDown()
	if n.health != Down || n.Degradation() != 0 || n.EffectiveSpeed() != 0 {
		t.Fatalf("down node still has capacity: %v %g", n.health, n.EffectiveSpeed())
	}

	n.Restore()
	if n.health != Healthy || n.EffectiveSpeed() != n.Speed() {
		t.Fatalf("restore did not return full speed: %v %g", n.health, n.EffectiveSpeed())
	}
}

func TestDegradeOutOfRangeRestores(t *testing.T) {
	c := emulab(t)
	n, _ := c.byName["emulab-high-001"]
	for _, f := range []float64{0, -1, 1, 2.5} {
		n.Degrade(0.5)
		n.Degrade(f)
		if n.health != Healthy || n.Degradation() != 1 {
			t.Fatalf("Degrade(%g) should restore, got %v %g", f, n.health, n.Degradation())
		}
	}
}

func TestAllocateSkipsDownNodes(t *testing.T) {
	c := emulab(t)
	first, _ := c.byName["emulab-low-001"]
	first.MarkDown()
	n, err := c.Allocate("low-end", "DB1")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() == first.Name() {
		t.Fatalf("allocated the down node %s", n.Name())
	}
	if n.Name() != "emulab-low-002" {
		t.Fatalf("allocation order changed: got %s", n.Name())
	}
}

func TestReleaseRestoresHealth(t *testing.T) {
	c := emulab(t)
	n, err := c.Allocate("high-end", "APP1")
	if err != nil {
		t.Fatal(err)
	}
	n.Degrade(0.3)
	c.Release(n)
	if n.health != Healthy || n.Degradation() != 1 {
		t.Fatalf("release kept degradation: %v %g", n.health, n.Degradation())
	}
	if n.Allocated() {
		t.Fatal("release kept allocation")
	}
}

// MarkDown takes the node out of service entirely.
func (n *Node) MarkDown() {
	n.health = Down
	n.degradation = 0
}
