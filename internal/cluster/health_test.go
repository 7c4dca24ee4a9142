package cluster

import "testing"

func TestNodeHealthLifecycle(t *testing.T) {
	c := emulab(t)
	n := allocate(t, c, "high-end")
	if n.Degradation() != 1 || n.EffectiveSpeed() != n.Speed() {
		t.Fatalf("fresh node not at full speed: %g", n.Degradation())
	}

	n.Degrade(0.5)
	if n.Degradation() != 0.5 {
		t.Fatalf("after Degrade(0.5): factor=%g", n.Degradation())
	}
	if got, want := n.EffectiveSpeed(), n.Speed()*0.5; got != want {
		t.Fatalf("effective speed = %g, want %g", got, want)
	}

	n.Restore()
	if n.Degradation() != 1 || n.EffectiveSpeed() != n.Speed() {
		t.Fatalf("restore did not return full speed: %g", n.EffectiveSpeed())
	}
}

func TestDegradeOutOfRangeRestores(t *testing.T) {
	c := emulab(t)
	n := allocate(t, c, "high-end")
	for _, f := range []float64{0, -1, 1, 2.5} {
		n.Degrade(0.5)
		n.Degrade(f)
		if n.Degradation() != 1 {
			t.Fatalf("Degrade(%g) should restore, got %g", f, n.Degradation())
		}
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
	if n.Degradation() != 1 {
		t.Fatalf("release kept degradation: %g", n.Degradation())
	}
	if n.Allocated() {
		t.Fatal("release kept allocation")
	}
}
