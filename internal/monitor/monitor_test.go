package monitor

import (
	"fmt"
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

// onStation returns p reading its CPU and queue counters from s, as the
// DES engine wires a role's station.
func onStation(p Probe, s *sim.Station) Probe {
	p.CPUBusy = s.BusyTime
	p.CPUServers = s.Servers()
	p.Jobs = func() float64 { return float64(s.InFlight()) }
	return p
}

func TestMonitorCPUSampling(t *testing.T) {
	k := sim.NewKernel(1)
	s := busyStation(k)
	m, err := New(k, Config{IntervalSec: 5, Metrics: []string{"cpu"}},
		[]Probe{onStation(Probe{Host: "h1", Role: "APP1"}, s)})
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
		[]Probe{onStation(Probe{
			Host: "h1", Role: "MYSQL1",
			TotalMemMB: 256, BaseMemMB: 80, MemPerJobMB: 2,
			NetBytes: func() float64 { net += 1000; return net },
			DiskOps:  func() float64 { return 42 },
		}, s)})
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
		[]Probe{onStation(Probe{Host: "h1", TotalMemMB: 256}, s)})
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
		[]Probe{onStation(Probe{Host: "h1"}, s)})
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
		[]Probe{onStation(Probe{Host: "h1"}, s)})
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
		[]Probe{onStation(Probe{Host: "h1", TotalMemMB: 256, BaseMemMB: 100, MemPerJobMB: 4}, s)})
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
		[]Probe{onStation(Probe{Host: "h1"}, s), {Host: "h2"}})
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
		onStation(Probe{Host: "h1", Role: "WEB1", TotalMemMB: 1024, NetBytes: count}, busyStation(k)),
		{Host: "h1", Role: "APP1", CPUBusy: count, TotalMemMB: 1024, DiskOps: count},
		onStation(Probe{Host: "h2", Role: "DB1", NetBytes: count, DiskOps: count, DiskBusy: count}, busyStation(k)),
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

// TestMonitorCounterReadSchedule pins when and in what order the monitor
// reads its counters: Start reads every non-nil counter once, each tick
// reads the counter of each sampled family once, in family order, and
// nothing is read between ticks or after Stop. A DES counter folds busy
// time into its integral when read, so an extra or reordered read moves
// stored bits; the eager reference's counters are pure functions of
// time, so it cannot see one.
func TestMonitorCounterReadSchedule(t *testing.T) {
	k := sim.NewKernel(1)
	var reads []string
	counter := func(name string) func() float64 {
		return func() float64 {
			reads = append(reads, name)
			return k.Now()
		}
	}
	probes := []Probe{
		{
			Host: "h1", Role: "APP1", CPUBusy: counter("h1 cpu"), CPUServers: 2,
			Jobs: counter("h1 jobs"), NetBytes: counter("h1 net"), DiskOps: counter("h1 disk"),
			DiskBusy: counter("h1 disk busy"), NetBusy: counter("h1 net busy"),
		},
		// No CPU counter (its cpu row reads idle) and a network counter
		// whose family is not enabled.
		{Host: "h2", Role: "CLIENT1", NetBytes: counter("h2 net")},
	}
	const interval = 5.0
	m, err := New(k, Config{IntervalSec: interval, Metrics: []string{"cpu", "memory", "disk"}}, probes)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(stage string, want ...string) {
		t.Helper()
		if strings.Join(reads, ", ") != strings.Join(want, ", ") {
			t.Fatalf("%s read %q, want %q", stage, reads, want)
		}
		reads = nil
	}
	m.Start()
	expect("Start", "h1 cpu", "h1 net", "h1 disk", "h1 disk busy", "h1 net busy", "h2 net")
	k.Run(interval / 2)
	expect("the first interval")
	for tick := 1; tick <= 3; tick++ {
		// From halfway through one interval to halfway through the next.
		k.Run((float64(tick) + 0.5) * interval)
		expect(fmt.Sprintf("tick %d", tick), "h1 cpu", "h1 jobs", "h1 disk", "h1 disk busy")
	}
	m.Stop()
	k.Run(10 * interval)
	expect("Stop")
}
