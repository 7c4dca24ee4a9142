package monitor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"elba/internal/sim"
)

// eagerMonitor is the reference for Monitor's text: the sampler that
// wrote every row into a per-host strings.Builder as it sampled, kept
// here so the on-demand renderer and the byte count can be checked
// against it.
type eagerMonitor struct {
	k       *sim.Kernel
	cfg     Config
	probes  []Probe
	running bool
	state   []eagerState
	buf     []byte
	files   map[string]*strings.Builder
}

type eagerState struct {
	file                                   *strings.Builder
	cpu, mem, net, disk, diskUtil, netUtil bool
	lastBusy, lastNet, lastDisk            float64
	lastDiskBusy, lastNetBusy              float64
}

func newEager(k *sim.Kernel, cfg Config, probes []Probe) *eagerMonitor {
	m := &eagerMonitor{k: k, cfg: cfg, probes: probes, files: map[string]*strings.Builder{}}
	has := func(metric string) bool {
		for _, x := range cfg.Metrics {
			if x == metric {
				return true
			}
		}
		return false
	}
	for _, p := range probes {
		if m.files[p.Host] == nil {
			m.files[p.Host] = &strings.Builder{}
			fmt.Fprintf(m.files[p.Host], "# sysstat 5.0.5 host=%s role=%s interval=%gs\n",
				p.Host, p.Role, cfg.IntervalSec)
		}
	}
	m.state = make([]eagerState, len(probes))
	for i, p := range probes {
		m.state[i] = eagerState{
			file:     m.files[p.Host],
			cpu:      has("cpu"),
			mem:      has("memory"),
			net:      has("network") && p.NetBytes != nil,
			disk:     has("disk") && p.DiskOps != nil,
			diskUtil: has("disk") && p.DiskBusy != nil,
			netUtil:  has("network") && p.NetBusy != nil,
		}
	}
	return m
}

func (m *eagerMonitor) Start() {
	m.running = true
	for i := range m.probes {
		p, st := &m.probes[i], &m.state[i]
		if p.CPUBusy != nil {
			st.lastBusy = p.CPUBusy()
		}
		if p.NetBytes != nil {
			st.lastNet = p.NetBytes()
		}
		if p.DiskOps != nil {
			st.lastDisk = p.DiskOps()
		}
		if p.DiskBusy != nil {
			st.lastDiskBusy = p.DiskBusy()
		}
		if p.NetBusy != nil {
			st.lastNetBusy = p.NetBusy()
		}
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

func (m *eagerMonitor) Stop() { m.running = false }

func (m *eagerMonitor) tick() {
	if !m.running {
		return
	}
	now := m.k.Now()
	for i := range m.probes {
		m.sample(&m.probes[i], &m.state[i], now)
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

func (m *eagerMonitor) sample(p *Probe, st *eagerState, now float64) {
	b := m.buf[:0]
	if st.cpu {
		util := 0.0
		if p.CPUBusy != nil {
			busy := p.CPUBusy()
			servers := 1
			if p.CPUServers > 1 {
				servers = p.CPUServers
			}
			delta := busy - st.lastBusy
			st.lastBusy = busy
			util = delta / (m.cfg.IntervalSec * float64(servers))
			if util > 1 {
				util = 1
			}
		}
		user := util * 100 * 0.92
		sys := util * 100 * 0.08
		idle := 100 - user - sys
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " cpu all "...)
		b = appendFixed(b, user, 6, 2)
		b = append(b, ' ')
		b = appendFixed(b, sys, 6, 2)
		b = append(b, ' ')
		b = appendFixed(b, idle, 6, 2)
		b = append(b, '\n')
	}
	if st.mem {
		used := p.BaseMemMB
		if p.Jobs != nil {
			used += p.Jobs() * p.MemPerJobMB
		}
		if p.TotalMemMB > 0 && used > p.TotalMemMB {
			used = p.TotalMemMB
		}
		free := p.TotalMemMB - used
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " mem "...)
		b = appendFixed(b, used, 8, 1)
		b = append(b, ' ')
		b = appendFixed(b, free, 8, 1)
		b = append(b, '\n')
	}
	if st.net {
		cum := p.NetBytes()
		rate := (cum - st.lastNet) / m.cfg.IntervalSec
		st.lastNet = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " net eth0 "...)
		b = appendFixed(b, rate, 12, 1)
		b = append(b, '\n')
	}
	if st.disk {
		cum := p.DiskOps()
		rate := (cum - st.lastDisk) / m.cfg.IntervalSec
		st.lastDisk = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " disk sda "...)
		b = appendFixed(b, rate, 10, 1)
		b = append(b, '\n')
	}
	if st.diskUtil {
		busy := p.DiskBusy()
		delta := busy - st.lastDiskBusy
		st.lastDiskBusy = busy
		util := delta / m.cfg.IntervalSec
		if util > 1 {
			util = 1
		}
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " disk sda %util "...)
		b = appendFixed(b, util*100, 6, 2)
		b = append(b, '\n')
	}
	if st.netUtil {
		busy := p.NetBusy()
		delta := busy - st.lastNetBusy
		st.lastNetBusy = busy
		util := delta / m.cfg.IntervalSec
		if util > 1 {
			util = 1
		}
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " net eth0 %util "...)
		b = appendFixed(b, util*100, 6, 2)
		b = append(b, '\n')
	}
	if len(b) > 0 {
		st.file.Write(b)
	}
	m.buf = b
}

func (m *eagerMonitor) CollectedBytes() int {
	n := 0
	for _, f := range m.files {
		n += f.Len()
	}
	return n
}

// monitorCase is a randomly drawn monitor: its config, its
// probes' hosts and counter readings, and when it runs and stops.
type monitorCase struct {
	cfg    Config
	probes []probeCase
	ticks  int // ticks sampled before the first comparison
	stop   bool
	more   int // ticks run after the first comparison (after Stop, if stop)
}

// probeCase holds one probe's static fields and, per counter, the
// readings it returns on successive calls (nil = counter absent).
type probeCase struct {
	host, role                         string
	totalMem, baseMem, perJob          float64
	servers                            int
	station                            bool
	cpu, jobs, net, disk, dBusy, nBusy []float64
}

// edgeValue draws a value beside a column's width limit 10^k-1
// (k = 3, 6, 8, 10) or negative limit -(10^(k-1)-1), including values
// that round across a limit or across the next power of ten.
func edgeValue(rng *rand.Rand) float64 {
	j := 1 + rng.IntN(11)
	offsets := []float64{0, -0.004, -0.005, -0.006, 0.004, 0.005, 0.006,
		-0.04, -0.05, -0.06, 0.04, 0.05, 0.06, 0.5, 0.94, 0.95, 0.96, 0.994, 0.995, 0.996, 1}
	v := math.Pow(10, float64(j)) - 1 + offsets[rng.IntN(len(offsets))]
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// readings draws n cumulative counter readings whose successive deltas
// cover zero, ordinary busy-time growth, negative steps, NaN and ±Inf,
// log-uniform magnitudes up to 10^13, and exact values at the columns'
// width limits (a reading after a zero reading is itself the delta).
func readings(rng *rand.Rand, n int, interval float64) []float64 {
	out := make([]float64, n)
	prev := 0.0
	for i := range out {
		var r float64
		switch x := rng.IntN(20); {
		case x < 6:
			r = prev + interval*rng.Float64()
		case x < 8:
			r = 0
		case x < 11:
			r = edgeValue(rng)
			if rng.IntN(2) == 0 {
				r *= interval
			}
		case x < 15:
			mag := math.Pow(10, -3+16*rng.Float64())
			if rng.IntN(3) == 0 {
				mag = -mag
			}
			r = prev + mag
		case x < 17:
			r = prev
		case x < 18:
			r = math.NaN()
		case x < 19:
			r = math.Inf(1)
		default:
			r = math.Inf(-1)
		}
		if math.IsNaN(r) || math.IsInf(r, 0) {
			prev = 0
		} else {
			prev = r
		}
		out[i] = r
	}
	return out
}

func randomCase(rng *rand.Rand) monitorCase {
	intervals := []float64{1, 1, 5, 0.05, 2.5, 0.3, 997}
	c := monitorCase{
		cfg:   Config{IntervalSec: intervals[rng.IntN(len(intervals))]},
		ticks: rng.IntN(30),
		stop:  rng.IntN(2) == 0,
		more:  rng.IntN(10),
	}
	for _, fam := range []string{"cpu", "memory", "network", "disk"} {
		if rng.IntN(4) != 0 {
			c.cfg.Metrics = append(c.cfg.Metrics, fam)
		}
	}
	hosts := []string{"h", "node12", "db-primary-host.example"}[:1+rng.IntN(3)]
	n := 1 + rng.IntN(5)
	reads := 2 + c.ticks + c.more
	maybe := func() []float64 {
		if rng.IntN(5) == 0 {
			return nil
		}
		return readings(rng, reads, c.cfg.IntervalSec)
	}
	for i := 0; i < n; i++ {
		pc := probeCase{
			host:     hosts[rng.IntN(len(hosts))],
			role:     fmt.Sprintf("ROLE%d", i+1),
			totalMem: []float64{0, 256, 2048, 1e7}[rng.IntN(4)],
			baseMem:  []float64{0, 80, 420, 99999.96}[rng.IntN(4)],
			perJob:   []float64{0, 0.5, 1, 2}[rng.IntN(4)],
			servers:  rng.IntN(4),
			station:  rng.IntN(6) == 0,
			cpu:      maybe(),
			jobs:     maybe(),
			net:      maybe(),
			disk:     maybe(),
			dBusy:    maybe(),
			nBusy:    maybe(),
		}
		c.probes = append(c.probes, pc)
	}
	return c
}

// reader returns a counter replaying vals on successive calls.
func reader(vals []float64) func() float64 {
	if vals == nil {
		return nil
	}
	i := 0
	return func() float64 {
		v := vals[i%len(vals)]
		i++
		return v
	}
}

// build materializes the case's probes on kernel k. Every call returns
// counters that replay the same readings, and stations fed the same jobs.
func (c monitorCase) build(k *sim.Kernel) []Probe {
	var probes []Probe
	for i, pc := range c.probes {
		p := Probe{
			Host: pc.host, Role: pc.role,
			TotalMemMB: pc.totalMem, BaseMemMB: pc.baseMem, MemPerJobMB: pc.perJob,
			CPUBusy: reader(pc.cpu), CPUServers: pc.servers,
			Jobs:     reader(pc.jobs),
			NetBytes: reader(pc.net), DiskOps: reader(pc.disk),
			DiskBusy: reader(pc.dBusy), NetBusy: reader(pc.nBusy),
		}
		if pc.station {
			s := sim.NewStation(k, sim.StationConfig{Name: pc.role, Servers: 1 + pc.servers, Speed: 1, Deterministic: true})
			gap := 0.7 * c.cfg.IntervalSec * float64(i+1)
			var feed func()
			feed = func() {
				s.Submit(gap*1.3, func(bool, float64, float64) {})
				k.Schedule(gap, feed)
			}
			k.Schedule(0, feed)
			p = onStation(p, s)
		}
		probes = append(probes, p)
	}
	return probes
}

// TestFileMatchesEagerBuilder checks File and CollectedBytes against the
// eager builder on random monitors: hosts shared by several probes,
// every family, zero, negative, NaN and ±Inf deltas, and magnitudes on
// both sides of each column's width limit, compared mid-run and again
// after more ticks (or after Stop).
func TestFileMatchesEagerBuilder(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	// Coverage of the measured path: rows printing NaN or ±Inf, and cpu
	// rows with a value wider than its 6-byte column.
	special, wide := 0, 0
	for i := 0; i < 2000; i++ {
		c := randomCase(rng)
		kl, ke := sim.NewKernel(1), sim.NewKernel(1)
		lazy, err := New(kl, c.cfg, c.build(kl))
		if err != nil {
			t.Fatal(err)
		}
		eager := newEager(ke, c.cfg, c.build(ke))
		lazy.Start()
		eager.Start()
		compare := func(stage string, until float64) {
			t.Helper()
			kl.Run(until)
			ke.Run(until)
			total := 0
			for _, h := range lazy.Hosts() {
				got, ok := lazy.File(h)
				want := eager.files[h]
				if !ok || want == nil {
					t.Fatalf("case %d %s: host %s: File ok=%v, eager has it=%v", i, stage, h, ok, want != nil)
				}
				if got != want.String() {
					t.Fatalf("case %d %s: host %s text differs from the eager builder\ngot:\n%s\nwant:\n%s",
						i, stage, h, got, want.String())
				}
				total += len(got)
			}
			if len(lazy.Hosts()) != len(eager.files) {
				t.Fatalf("case %d %s: %d hosts, eager builder has %d", i, stage, len(lazy.Hosts()), len(eager.files))
			}
			if got, want := lazy.CollectedBytes(), eager.CollectedBytes(); got != want || got != total {
				t.Fatalf("case %d %s: CollectedBytes = %d, eager builder %d, rendered %d", i, stage, got, want, total)
			}
		}
		compare("mid-run", float64(c.ticks)*c.cfg.IntervalSec+c.cfg.IntervalSec/2)
		if c.stop {
			lazy.Stop()
			eager.Stop()
		}
		compare("end", float64(c.ticks+c.more)*c.cfg.IntervalSec+c.cfg.IntervalSec/2)
		for _, h := range lazy.Hosts() {
			text, _ := lazy.File(h)
			for _, line := range strings.Split(text, "\n") {
				f := strings.Fields(line)
				switch {
				case strings.Contains(line, "NaN") || strings.Contains(line, "Inf"):
					special++
				case len(f) == 7 && f[2] == "cpu" && (len(f[4]) > 6 || len(f[5]) > 6 || len(f[6]) > 6):
					wide++
				}
			}
		}
		if _, ok := lazy.File("no-such-host"); ok {
			t.Fatal("File reported an unmonitored host")
		}
	}
	if special == 0 || wide == 0 {
		t.Fatalf("generator lost its edge values: %d NaN/Inf rows, %d wide cpu rows", special, wide)
	}
}
