// Package monitor implements the system-level monitoring layer that
// Mulini parameterizes per host (paper §II): samplers that read simulated
// host counters on a fixed interval and emit sysstat-style records. The
// collected text files are what the paper stores by the gigabyte
// (Table 3's "collected perf. data size"); the CPU-utilization series
// feed Figures 2 and 8.
package monitor

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"elba/internal/metrics"
	"elba/internal/sim"
)

// Probe describes one monitored host: where its CPU signal comes from and
// how its memory, network, and disk counters are derived.
type Probe struct {
	// Host is the node hostname the monitor runs on.
	Host string
	// Role is the deployment role (APP1, MYSQL2, ...).
	Role string
	// Station supplies the CPU busy-time integral and queue depth. May be
	// nil for hosts that run no modelled service (the client node).
	Station *sim.Station
	// TotalMemMB is the node's physical memory.
	TotalMemMB float64
	// BaseMemMB is the resident set of the installed software at idle.
	BaseMemMB float64
	// MemPerJobMB approximates per-in-flight-request memory.
	MemPerJobMB float64
	// NetBytes cumulatively counts bytes through the host (nil = none).
	NetBytes func() float64
	// DiskOps cumulatively counts disk operations (nil = none).
	DiskOps func() float64
	// Disk is the host's contended disk resource, when the experiment
	// declares disk demands (nil = none). Its busy-time integral yields the
	// %util column of the disk rows.
	Disk *sim.Resource
	// NetRes is the host's contended network link, when the experiment
	// declares payload demands (nil = none).
	NetRes *sim.Resource

	// Function-based counter sources, for engines that model hosts without
	// sim stations (the fluid approximation). Each is the cumulative
	// busy-time or level equivalent of the station/resource reading above
	// and is consulted only when the corresponding object is nil.
	//
	// CPUBusyFn returns cumulative CPU busy-seconds for the host.
	CPUBusyFn func() float64
	// CPUServers is the core count dividing the CPU busy window when
	// CPUBusyFn supplies the signal (minimum 1).
	CPUServers int
	// JobsFn returns the host's current in-flight request level.
	JobsFn func() float64
	// DiskBusyFn returns cumulative disk busy-seconds.
	DiskBusyFn func() float64
	// NetBusyFn returns cumulative network-link busy-seconds.
	NetBusyFn func() float64
}

// Config configures a monitoring session.
type Config struct {
	// IntervalSec is the sampling interval from the TBL monitor clause.
	IntervalSec float64
	// Metrics enables metric families: cpu, memory, network, disk.
	Metrics []string
}

// Monitor samples a set of probes on a simulation kernel.
type Monitor struct {
	k       *sim.Kernel
	cfg     Config
	probes  []Probe
	running bool

	// state caches per-probe output targets and counter windows so a
	// sample tick does no map lookups, key concatenation, or Sprintf work.
	state []probeState
	buf   []byte // scratch line buffer reused across ticks

	files  map[string]*strings.Builder
	series map[string]*metrics.TimeSeries
}

// probeState is the resolved hot-path state for one probe: where its rows
// go, which time series receive its values, and the previous cumulative
// counter readings for windowed rates.
type probeState struct {
	file     *strings.Builder
	cpu      *metrics.TimeSeries
	mem      *metrics.TimeSeries
	net      *metrics.TimeSeries
	disk     *metrics.TimeSeries
	diskUtil *metrics.TimeSeries
	netUtil  *metrics.TimeSeries
	lastBusy float64
	lastNet  float64
	lastDisk float64
	// previous busy-time readings of the contended disk/net resources
	lastDiskBusy float64
	lastNetBusy  float64
}

// New creates a monitor for the probes. Sampling begins at Start.
func New(k *sim.Kernel, cfg Config, probes []Probe) (*Monitor, error) {
	if cfg.IntervalSec <= 0 {
		return nil, fmt.Errorf("monitor: sampling interval must be positive")
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("monitor: no probes configured")
	}
	m := &Monitor{
		k: k, cfg: cfg, probes: probes,
		files:  map[string]*strings.Builder{},
		series: map[string]*metrics.TimeSeries{},
	}
	for _, p := range probes {
		if m.files[p.Host] == nil {
			m.files[p.Host] = &strings.Builder{}
			fmt.Fprintf(m.files[p.Host], "# sysstat 5.0.5 host=%s role=%s interval=%gs\n",
				p.Host, p.Role, cfg.IntervalSec)
		}
	}
	m.state = make([]probeState, len(probes))
	for i, p := range probes {
		st := &m.state[i]
		st.file = m.files[p.Host]
		if m.has("cpu") {
			st.cpu = m.seriesFor(p.Host, "cpu")
		}
		if m.has("memory") {
			st.mem = m.seriesFor(p.Host, "memory")
		}
		if m.has("network") && p.NetBytes != nil {
			st.net = m.seriesFor(p.Host, "network")
		}
		if m.has("disk") && p.DiskOps != nil {
			st.disk = m.seriesFor(p.Host, "disk")
		}
		if m.has("disk") && (p.Disk != nil || p.DiskBusyFn != nil) {
			st.diskUtil = m.seriesFor(p.Host, "disk-util")
		}
		if m.has("network") && (p.NetRes != nil || p.NetBusyFn != nil) {
			st.netUtil = m.seriesFor(p.Host, "net-util")
		}
	}
	return m, nil
}

// seriesFor returns the time series for host/metric, creating it on first
// use. Probes sharing a host share the series, as record() always did.
func (m *Monitor) seriesFor(host, metric string) *metrics.TimeSeries {
	key := host + "/" + metric
	ts, ok := m.series[key]
	if !ok {
		ts = metrics.NewTimeSeries(key)
		m.series[key] = ts
	}
	return ts
}

func (m *Monitor) has(metric string) bool {
	for _, x := range m.cfg.Metrics {
		if x == metric {
			return true
		}
	}
	return false
}

// Start begins periodic sampling. Sampling continues until Stop.
func (m *Monitor) Start() {
	m.running = true
	// Prime counters so the first window starts at Start, not at t=0.
	for i := range m.probes {
		p, st := &m.probes[i], &m.state[i]
		if p.Station != nil {
			st.lastBusy = p.Station.BusyTime()
		} else if p.CPUBusyFn != nil {
			st.lastBusy = p.CPUBusyFn()
		}
		if p.NetBytes != nil {
			st.lastNet = p.NetBytes()
		}
		if p.DiskOps != nil {
			st.lastDisk = p.DiskOps()
		}
		if p.Disk != nil {
			st.lastDiskBusy = p.Disk.BusyTime()
		} else if p.DiskBusyFn != nil {
			st.lastDiskBusy = p.DiskBusyFn()
		}
		if p.NetRes != nil {
			st.lastNetBusy = p.NetRes.BusyTime()
		} else if p.NetBusyFn != nil {
			st.lastNetBusy = p.NetBusyFn()
		}
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

// Stop halts sampling after the current interval.
func (m *Monitor) Stop() { m.running = false }

func (m *Monitor) tick() {
	if !m.running {
		return
	}
	now := m.k.Now()
	for i := range m.probes {
		m.sample(&m.probes[i], &m.state[i], now)
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

// sample emits one sysstat row per enabled metric family. Rows are built
// in the monitor's scratch buffer and written once, so steady-state
// sampling allocates nothing beyond amortized buffer growth — collection
// volume is Table 3 scale, so this path runs millions of times per sweep.
func (m *Monitor) sample(p *Probe, st *probeState, now float64) {
	b := m.buf[:0]
	if st.cpu != nil {
		util := 0.0
		if p.Station != nil || p.CPUBusyFn != nil {
			var busy float64
			servers := 1
			if p.Station != nil {
				busy = p.Station.BusyTime()
				servers = p.Station.Servers()
			} else {
				busy = p.CPUBusyFn()
				if p.CPUServers > 1 {
					servers = p.CPUServers
				}
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
		st.cpu.Append(now, util*100)
	}
	if st.mem != nil {
		used := p.BaseMemMB
		if p.Station != nil {
			used += float64(p.Station.InFlight()) * p.MemPerJobMB
		} else if p.JobsFn != nil {
			used += p.JobsFn() * p.MemPerJobMB
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
		st.mem.Append(now, used)
	}
	if st.net != nil {
		cum := p.NetBytes()
		rate := (cum - st.lastNet) / m.cfg.IntervalSec
		st.lastNet = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " net eth0 "...)
		b = appendFixed(b, rate, 12, 1)
		b = append(b, '\n')
		st.net.Append(now, rate)
	}
	if st.disk != nil {
		cum := p.DiskOps()
		rate := (cum - st.lastDisk) / m.cfg.IntervalSec
		st.lastDisk = cum
		b = appendStamp(b, now)
		b = append(b, ' ')
		b = append(b, p.Host...)
		b = append(b, " disk sda "...)
		b = appendFixed(b, rate, 10, 1)
		b = append(b, '\n')
		st.disk.Append(now, rate)
	}
	if st.diskUtil != nil {
		busy := 0.0
		if p.Disk != nil {
			busy = p.Disk.BusyTime()
		} else {
			busy = p.DiskBusyFn()
		}
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
		st.diskUtil.Append(now, util*100)
	}
	if st.netUtil != nil {
		busy := 0.0
		if p.NetRes != nil {
			busy = p.NetRes.BusyTime()
		} else {
			busy = p.NetBusyFn()
		}
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
		st.netUtil.Append(now, util*100)
	}
	if len(b) > 0 {
		st.file.Write(b)
	}
	m.buf = b
}

// appendStamp renders a simulated time as HH:MM:SS, sar style, without the
// Sprintf round trip of the old stamp() helper.
func appendStamp(b []byte, t float64) []byte {
	s := int(t)
	h, mi, se := s/3600%24, s/60%60, s%60
	return append(b,
		byte('0'+h/10), byte('0'+h%10), ':',
		byte('0'+mi/10), byte('0'+mi%10), ':',
		byte('0'+se/10), byte('0'+se%10))
}

// appendFixed renders v like fmt's %{width}.{prec}f: fixed decimals,
// left-padded with spaces to the minimum width.
func appendFixed(b []byte, v float64, width, prec int) []byte {
	const spaces = "                " // longest pad is width 12
	start := len(b)
	b = appendF(b, v, prec)
	if pad := width - (len(b) - start); pad > 0 {
		b = append(b, spaces[:pad]...)
		copy(b[start+pad:], b[start:len(b)-pad])
		for i := 0; i < pad; i++ {
			b[start+i] = ' '
		}
	}
	return b
}

// pow10 holds the powers of ten that fit in a uint64.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendF appends v as strconv.AppendFloat(b, v, 'f', prec, 64) does, in
// integer arithmetic. With an explicit precision strconv always takes its
// multiprecision path; here v = mant·2^e exactly, so v·10^prec is
// mant·10^prec·2^e, and rounding that to an integer half to even gives
// the digits strconv prints. NaN, ±Inf, and magnitudes whose scaled
// mantissa overflows 64 bits go to strconv.
func appendF(b []byte, v float64, prec int) []byte {
	fb := math.Float64bits(v)
	exp := int(fb>>52) & 0x7ff
	mant := fb & (1<<52 - 1)
	if exp == 0x7ff || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	e := exp - 1075 // v = ±mant·2^e
	hi, p := bits.Mul64(mant, pow10[prec])
	var n uint64
	switch {
	case hi != 0 || e >= 0 && e > bits.LeadingZeros64(p):
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	case e >= 0:
		n = p << e
	case e > -64:
		s := uint(-e)
		n = p >> s
		rem, half := p&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	}
	// For e ≤ −64, n stays 0: p·2^e is below one half. Past −64 that
	// follows from p < 2^64; at −64 the mantissa is normal (≥ 2^52), so
	// p < 2^63 for prec ≤ 3 and p overflowed above for any larger prec.
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(b, n, 10)
	}
	scale := pow10[prec]
	b = strconv.AppendUint(b, n/scale, 10)
	b = append(b, '.')
	frac := n % scale
	for d := scale / 10; d > 0; d /= 10 {
		b = append(b, byte('0'+frac/d%10))
	}
	return b
}

// Series returns the sampled time series for host/metric.
func (m *Monitor) Series(host, metric string) (*metrics.TimeSeries, bool) {
	ts, ok := m.series[host+"/"+metric]
	return ts, ok
}

// File returns the sysstat-format text collected for a host.
func (m *Monitor) File(host string) (string, bool) {
	f, ok := m.files[host]
	if !ok {
		return "", false
	}
	return f.String(), true
}

// Hosts lists monitored hosts, sorted.
func (m *Monitor) Hosts() []string {
	out := make([]string, 0, len(m.files))
	for h := range m.files {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// CollectedBytes reports the total size of collected monitor output, the
// quantity the paper's Table 3 reports per experiment set.
func (m *Monitor) CollectedBytes() int {
	n := 0
	for _, f := range m.files {
		n += f.Len()
	}
	return n
}
