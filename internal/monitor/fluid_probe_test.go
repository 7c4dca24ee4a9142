package monitor

import (
	"math"
	"strings"
	"testing"

	"elba/internal/sim"
)

// The fluid engine has no sim.Station objects: its hosts
// expose cumulative busy-time and level functions instead. These tests
// pin the Fn-based probe path — the same sysstat rows must come out, the
// disk/net %util rows must appear exactly when a busy-time source is
// attached, and a zero-population system must sample cleanly to zeros.

// fluidKernel returns a kernel plus a clock-proportional busy counter:
// busy-time accumulating at the given utilization fraction.
func fluidBusy(k *sim.Kernel, util float64) func() float64 {
	return func() float64 { return k.Now() * util }
}

func TestMonitorFluidFnProbes(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu", "memory", "network", "disk"}},
		[]Probe{{
			Host: "fluid-app", Role: "APP1",
			TotalMemMB: 512, BaseMemMB: 100, MemPerJobMB: 2,
			CPUBusyFn:  fluidBusy(k, 0.6),
			JobsFn:     func() float64 { return 25 },
			DiskBusyFn: fluidBusy(k, 0.3),
			NetBusyFn:  fluidBusy(k, 0.1),
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(100)

	cpu, ok := m.Series("fluid-app", "cpu")
	if !ok || len(cpu.Points()) < 15 {
		t.Fatalf("cpu series missing or short")
	}
	if mean, _ := cpu.MeanIn(0, 100); math.Abs(mean-60) > 1 {
		t.Fatalf("fn-probe cpu = %.1f%%, want 60%%", mean)
	}
	mem, ok := m.Series("fluid-app", "memory")
	if !ok {
		t.Fatal("memory series missing")
	}
	if mean, _ := mem.MeanIn(0, 100); math.Abs(mean-150) > 1 {
		t.Fatalf("fn-probe memory = %.1f MB, want base 100 + 25 jobs x 2 MB = 150", mean)
	}
	du, ok := m.Series("fluid-app", "disk-util")
	if !ok {
		t.Fatal("disk-util series missing despite DiskBusyFn")
	}
	if mean, _ := du.MeanIn(0, 100); math.Abs(mean-30) > 1 {
		t.Fatalf("fn-probe disk util = %.1f%%, want 30%%", mean)
	}
	nu, ok := m.Series("fluid-app", "net-util")
	if !ok {
		t.Fatal("net-util series missing despite NetBusyFn")
	}
	if mean, _ := nu.MeanIn(0, 100); math.Abs(mean-10) > 1 {
		t.Fatalf("fn-probe net util = %.1f%%, want 10%%", mean)
	}

	// The rows must be the same sysstat dialect the station path emits.
	text, _ := m.File("fluid-app")
	for _, want := range []string{" cpu all ", " mem ", " disk sda %util ", " net eth0 %util "} {
		if !strings.Contains(text, want) {
			t.Errorf("fn-probe output missing %q rows", want)
		}
	}
	recs, err := ParseFile(text)
	if err != nil {
		t.Fatalf("fn-probe output does not parse: %v", err)
	}
	families := map[string]int{}
	for _, r := range recs {
		families[r.Family]++
	}
	for _, fam := range []string{"cpu", "mem", "disk-util", "net-util"} {
		if families[fam] == 0 {
			t.Errorf("family %s missing after round trip: %v", fam, families)
		}
	}
}

// TestMonitorFluidUtilRowsGatedOnAttachment: a fluid host with no
// declared disk or network demand attaches no busy-time source, and the
// monitor must not emit %util rows for resources that do not exist —
// matching the station path, where absent device stations suppress rows.
func TestMonitorFluidUtilRowsGatedOnAttachment(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu", "network", "disk"}},
		[]Probe{{
			Host: "fluid-web", Role: "HTTPD1",
			CPUBusyFn: fluidBusy(k, 0.4),
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(50)
	if _, ok := m.Series("fluid-web", "disk-util"); ok {
		t.Error("disk-util series exists without a DiskBusyFn attachment")
	}
	if _, ok := m.Series("fluid-web", "net-util"); ok {
		t.Error("net-util series exists without a NetBusyFn attachment")
	}
	text, _ := m.File("fluid-web")
	if strings.Contains(text, "%util") {
		t.Errorf("unattached resources emitted %%util rows:\n%s", text)
	}
	if !strings.Contains(text, " cpu all ") {
		t.Error("cpu rows missing")
	}
}

// TestMonitorFluidMultiCoreDivisor: CPUServers divides the busy window,
// as Station.Servers does on the DES path. A 2-core host accumulating
// 1.2 busy-seconds per second is 60% utilized, not pegged.
func TestMonitorFluidMultiCoreDivisor(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{{
			Host: "fluid-warp", Role: "APP1",
			CPUBusyFn:  fluidBusy(k, 1.2),
			CPUServers: 2,
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(100)
	ts, _ := m.Series("fluid-warp", "cpu")
	if mean, _ := ts.MeanIn(0, 100); math.Abs(mean-60) > 1 {
		t.Fatalf("2-core cpu = %.1f%%, want 60%%", mean)
	}
}

// TestMonitorFluidZeroPopulation: an idle fluid system (all counters
// flat at zero jobs) must sample to exact zeros and base memory with no
// NaNs — the zero-population edge of the aggregated dynamics.
func TestMonitorFluidZeroPopulation(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu", "memory", "network", "disk"}},
		[]Probe{{
			Host: "fluid-idle", Role: "MYSQL1",
			TotalMemMB: 256, BaseMemMB: 80, MemPerJobMB: 2,
			CPUBusyFn:  func() float64 { return 0 },
			JobsFn:     func() float64 { return 0 },
			DiskBusyFn: func() float64 { return 0 },
			NetBusyFn:  func() float64 { return 0 },
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(60)
	for _, metric := range []string{"cpu", "disk-util", "net-util"} {
		ts, ok := m.Series("fluid-idle", metric)
		if !ok {
			t.Fatalf("%s series missing", metric)
		}
		mean, sampled := ts.MeanIn(0, 60)
		if !sampled {
			t.Fatalf("%s series empty", metric)
		}
		if mean != 0 || math.IsNaN(mean) {
			t.Errorf("idle %s = %v, want exact 0", metric, mean)
		}
	}
	mem, _ := m.Series("fluid-idle", "memory")
	if mean, _ := mem.MeanIn(0, 60); mean != 80 {
		t.Errorf("idle memory = %.1f MB, want base 80", mean)
	}
	text, _ := m.File("fluid-idle")
	if strings.Contains(text, "NaN") {
		t.Errorf("NaN leaked into sysstat output:\n%s", text)
	}
	if _, err := ParseFile(text); err != nil {
		t.Fatalf("idle output does not parse: %v", err)
	}
}
