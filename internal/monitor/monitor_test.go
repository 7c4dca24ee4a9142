package monitor

import (
	"math"
	"strings"
	"testing"

	"elba/internal/sim"
)

func busyStation(k *sim.Kernel) *sim.Station {
	s := sim.NewStation(k, sim.StationConfig{Name: "S", Servers: 1, Speed: 1, Deterministic: true})
	// Keep the station 50% busy: 1s job every 2s.
	var feed func()
	feed = func() {
		s.Submit(1.0, func(bool, float64, float64) {})
		k.Schedule(2.0, feed)
	}
	k.Schedule(0, feed)
	return s
}

func TestMonitorCPUSampling(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{{Host: "h1", Role: "APP1", Station: s}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(100)
	ts, ok := m.Series("h1", "cpu")
	if !ok || len(ts.Points()) < 15 {
		t.Fatalf("cpu series missing or short: %v", ts)
	}
	mean, _ := ts.MeanIn(0, 100)
	if math.Abs(mean-50) > 5 {
		t.Fatalf("mean cpu = %.1f%%, want ≈50%%", mean)
	}
}

func TestMonitorFileFormatRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	var net float64
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu", "memory", "network", "disk"}},
		[]Probe{{
			Host: "h1", Role: "MYSQL1", Station: s,
			TotalMemMB: 256, BaseMemMB: 80, MemPerJobMB: 2,
			NetBytes: func() float64 { net += 1000; return net },
			DiskOps:  func() float64 { return 42 },
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	k.Run(30)
	text, ok := m.File("h1")
	if !ok {
		t.Fatalf("file missing")
	}
	if !strings.HasPrefix(text, "# sysstat") {
		t.Fatalf("missing sysstat header: %q", text[:40])
	}
	recs, err := ParseFile(text)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	families := map[string]int{}
	for _, r := range recs {
		families[r.Family]++
		if r.Host != "h1" {
			t.Fatalf("host = %q", r.Host)
		}
	}
	for _, fam := range []string{"cpu", "mem", "net", "disk"} {
		if families[fam] == 0 {
			t.Errorf("family %s missing from output", fam)
		}
	}
	// CPU util accessor.
	for _, r := range recs {
		if r.Family == "cpu" {
			u, ok := r.CPUUtil()
			if !ok || u < 0 || u > 100 {
				t.Fatalf("cpu util = %g, %v", u, ok)
			}
			break
		}
	}
}

func TestMonitorSelectiveMetrics(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	m, _ := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{{Host: "h1", Station: s, TotalMemMB: 256}})
	m.Start()
	k.Run(20)
	if _, ok := m.Series("h1", "memory"); ok {
		t.Fatalf("memory sampled though not enabled")
	}
	text, _ := m.File("h1")
	if strings.Contains(text, " mem ") {
		t.Fatalf("memory rows in output: %s", text)
	}
}

func TestMonitorStop(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	m, _ := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{{Host: "h1", Station: s}})
	m.Start()
	k.Run(50)
	m.Stop()
	ts, _ := m.Series("h1", "cpu")
	n := len(ts.Points())
	k.Run(100)
	if len(ts.Points()) > n+1 {
		t.Fatalf("sampling continued after stop: %d -> %d", n, len(ts.Points()))
	}
}

func TestMonitorWindowedUtilization(t *testing.T) {
	// The busy-time window must start at Start, not at kernel time 0:
	// pre-Start load must not leak into the first samples.
	k := sim.NewKernel(1)
	s := sim.NewStation(k, sim.StationConfig{Name: "S", Servers: 1, Speed: 1, Deterministic: true})
	s.Submit(10, func(bool, float64, float64) {}) // busy 0..10
	k.Run(10)                                     // all pre-Start
	m, _ := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{{Host: "h1", Station: s}})
	m.Start()
	k.Run(30) // idle afterwards
	ts, _ := m.Series("h1", "cpu")
	mean, _ := ts.MeanIn(0, 1e9)
	if mean > 1 {
		t.Fatalf("pre-start busy time leaked into samples: %.2f%%", mean)
	}
}

func TestMonitorMemoryClamped(t *testing.T) {
	k := sim.NewKernel(1)
	s := sim.NewStation(k, sim.StationConfig{Name: "S", Servers: 1, Speed: 1, Deterministic: true})
	for i := 0; i < 1000; i++ {
		s.Submit(100, func(bool, float64, float64) {})
	}
	m, _ := New(k, Config{IntervalSec: 5, Metrics: []string{"memory"}},
		[]Probe{{Host: "h1", Station: s, TotalMemMB: 256, BaseMemMB: 100, MemPerJobMB: 4}})
	m.Start()
	k.Run(20)
	ts, _ := m.Series("h1", "memory")
	for _, p := range ts.Points() {
		if p.V > 256 {
			t.Fatalf("memory exceeded physical size: %g", p.V)
		}
	}
}

func TestMonitorConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{IntervalSec: 0, Metrics: []string{"cpu"}}, []Probe{{Host: "h"}}); err == nil {
		t.Errorf("zero interval accepted")
	}
	if _, err := New(k, Config{IntervalSec: 5}, nil); err == nil {
		t.Errorf("no probes accepted")
	}
}

func TestMonitorCollectedBytesGrow(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	m, _ := New(k, Config{IntervalSec: 1, Metrics: []string{"cpu"}},
		[]Probe{{Host: "h1", Station: s}, {Host: "h2", Station: nil}})
	m.Start()
	k.Run(10)
	b1 := m.CollectedBytes()
	k.Run(20)
	if b2 := m.CollectedBytes(); b2 <= b1 {
		t.Fatalf("collected bytes did not grow: %d -> %d", b1, b2)
	}
	if got := m.Hosts(); len(got) != 2 || got[0] != "h1" {
		t.Fatalf("hosts = %v", got)
	}
}

func TestParseFileErrors(t *testing.T) {
	cases := []string{
		"xx:yy:zz h cpu all 1 2 3",
		"00:00 h cpu all 1 2 3",
		"00:00:01 h cpu",
		"00:00:01 h cpu all x y z",
		"00:00:01 h mem",
	}
	for _, c := range cases {
		if _, err := ParseFile(c); err == nil {
			t.Errorf("ParseFile(%q) should fail", c)
		}
	}
	// Comments and blanks are fine.
	recs, err := ParseFile("# header\n\n00:00:05 h cpu all 10 1 89\n")
	if err != nil || len(recs) != 1 {
		t.Fatalf("valid file rejected: %v", err)
	}
	if recs[0].TimeSec != 5 || recs[0].Device != "all" {
		t.Fatalf("record = %+v", recs[0])
	}
}

// TestMonitorHorizonSizesSeries checks that a monitor told its horizon
// samples without allocating: Start sized every series for the whole
// run, including the series two probes on one host share.
func TestMonitorHorizonSizesSeries(t *testing.T) {
	k := sim.NewKernel(1)
	count := func() float64 { return k.Now() * 10 }
	probes := []Probe{
		{Host: "h1", Role: "WEB1", Station: busyStation(k), TotalMemMB: 1024, NetBytes: count},
		{Host: "h1", Role: "APP1", CPUBusyFn: count, TotalMemMB: 1024, DiskOps: count},
		{Host: "h2", Role: "DB1", Station: busyStation(k), NetBytes: count, DiskOps: count, DiskBusyFn: count},
	}
	const block = 300 // ticks, at one tick per second
	m, err := New(k, Config{IntervalSec: 1, Metrics: []string{"cpu", "memory", "network", "disk"},
		HorizonSec: 2 * block}, probes)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	var until float64
	// AllocsPerRun first runs the function once untimed, so the timed run
	// samples the second half of the horizon, where an undersized series
	// would regrow.
	allocs := testing.AllocsPerRun(1, func() {
		until += block
		k.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("sampling %d ticks allocated %v times", block, allocs)
	}
	if ts, _ := m.Series("h1", "cpu"); len(ts.Points()) != 2*2*block {
		t.Fatalf("shared cpu series holds %d points, want %d", len(ts.Points()), 2*2*block)
	}
}

// CPUUtil returns a cpu record's total utilization percentage
// (user + sys).
func (r Record) CPUUtil() (float64, bool) {
	if r.Family != "cpu" || len(r.Values) < 3 {
		return 0, false
	}
	return r.Values[0] + r.Values[1], true
}
