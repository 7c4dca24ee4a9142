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

	// state caches per-probe series and counter windows so a sample tick
	// does no map lookups or key concatenation.
	state []probeState
	ticks int    // sampling ticks taken so far
	buf   []byte // reused to measure values wider than their column

	files  map[string]*hostFile
	series map[string]*metrics.TimeSeries
}

// hostFile is one host's sysstat collection file. Sampling only counts
// its bytes; File renders the text from the series on demand, because
// nothing but the opt-in archive reads it.
type hostFile struct {
	header string
	probes []int // indexes of the host's probes, in probe order
	bytes  int   // rendered length of the header and every row so far
}

// Metric families, in the order a probe's rows appear within a tick.
const (
	famCPU = iota
	famMem
	famNet
	famDisk
	famDiskUtil
	famNetUtil
	numFamilies
)

// families names each family's series and the row text between the host
// and the values.
var families = [numFamilies]struct{ series, label string }{
	famCPU:      {"cpu", " cpu all "},
	famMem:      {"memory", " mem "},
	famNet:      {"network", " net eth0 "},
	famDisk:     {"disk", " disk sda "},
	famDiskUtil: {"disk-util", " disk sda %util "},
	famNetUtil:  {"net-util", " net eth0 %util "},
}

// stampLen is the length of an HH:MM:SS stamp.
const stampLen = 8

// probeState is the resolved hot-path state for one probe: its host's
// file, the series receiving each family's values (nil = family not
// sampled), and the previous cumulative counter readings for windowed
// rates.
type probeState struct {
	file     *hostFile
	series   [numFamilies]*metrics.TimeSeries
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
		files:  map[string]*hostFile{},
		series: map[string]*metrics.TimeSeries{},
	}
	m.state = make([]probeState, len(probes))
	for i, p := range probes {
		f := m.files[p.Host]
		if f == nil {
			f = &hostFile{header: fmt.Sprintf("# sysstat 5.0.5 host=%s role=%s interval=%gs\n",
				p.Host, p.Role, cfg.IntervalSec)}
			f.bytes = len(f.header)
			m.files[p.Host] = f
		}
		f.probes = append(f.probes, i)
		st := &m.state[i]
		st.file = f
		sampled := [numFamilies]bool{
			famCPU:      m.has("cpu"),
			famMem:      m.has("memory"),
			famNet:      m.has("network") && p.NetBytes != nil,
			famDisk:     m.has("disk") && p.DiskOps != nil,
			famDiskUtil: m.has("disk") && (p.Disk != nil || p.DiskBusyFn != nil),
			famNetUtil:  m.has("network") && (p.NetRes != nil || p.NetBusyFn != nil),
		}
		for fam, on := range sampled {
			if on {
				st.series[fam] = m.seriesFor(p.Host, families[fam].series)
			}
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
	m.ticks++
	m.k.Schedule(m.cfg.IntervalSec, m.tick)
}

// sample records one value per enabled metric family in the family's
// series and counts the sysstat row it renders to. No text is written
// here — File renders rows from the series — so steady-state sampling
// allocates nothing beyond amortized series growth; collection volume is
// Table 3 scale, so this path runs millions of times per sweep.
func (m *Monitor) sample(p *Probe, st *probeState, now float64) {
	if st.series[famCPU] != nil {
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
		m.record(p, st, famCPU, now, util*100)
	}
	if st.series[famMem] != nil {
		used := p.BaseMemMB
		if p.Station != nil {
			used += float64(p.Station.InFlight()) * p.MemPerJobMB
		} else if p.JobsFn != nil {
			used += p.JobsFn() * p.MemPerJobMB
		}
		if p.TotalMemMB > 0 && used > p.TotalMemMB {
			used = p.TotalMemMB
		}
		m.record(p, st, famMem, now, used)
	}
	if st.series[famNet] != nil {
		cum := p.NetBytes()
		rate := (cum - st.lastNet) / m.cfg.IntervalSec
		st.lastNet = cum
		m.record(p, st, famNet, now, rate)
	}
	if st.series[famDisk] != nil {
		cum := p.DiskOps()
		rate := (cum - st.lastDisk) / m.cfg.IntervalSec
		st.lastDisk = cum
		m.record(p, st, famDisk, now, rate)
	}
	if st.series[famDiskUtil] != nil {
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
		m.record(p, st, famDiskUtil, now, util*100)
	}
	if st.series[famNetUtil] != nil {
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
		m.record(p, st, famNetUtil, now, util*100)
	}
}

// record appends a family's value to its series and adds the length of
// the row File renders for it to the host's byte count: the stamp, a
// space, the host, the label, the columns with a space between each
// two, and the newline.
func (m *Monitor) record(p *Probe, st *probeState, fam int, now, v float64) {
	st.series[fam].Append(now, v)
	var cols [3]column
	n := columns(&cols, fam, p, v)
	size := stampLen + 1 + len(p.Host) + len(families[fam].label) + n
	for _, c := range cols[:n] {
		size += m.fixedLen(c)
	}
	st.file.bytes += size
}

// column is one value of a row, printed as %{width}.{prec}f.
type column struct {
	v           float64
	width, prec int
}

// columns fills cols with the columns of family fam's row for the series
// value v and returns their number: cpu splits the utilization
// percentage into user, sys and idle, and mem prints the free memory
// beside the used. It fills an array the caller owns because returning
// one by value costs a copy on every sample.
func columns(cols *[3]column, fam int, p *Probe, v float64) int {
	switch fam {
	case famCPU:
		user := v * 0.92
		sys := v * 0.08
		idle := 100 - user - sys
		cols[0], cols[1], cols[2] = column{user, 6, 2}, column{sys, 6, 2}, column{idle, 6, 2}
		return 3
	case famMem:
		cols[0], cols[1] = column{v, 8, 1}, column{p.TotalMemMB - v, 8, 1}
		return 2
	case famNet:
		cols[0] = column{v, 12, 1}
	case famDisk:
		cols[0] = column{v, 10, 1}
	default: // famDiskUtil, famNetUtil
		cols[0] = column{v, 6, 2}
	}
	return 1
}

// fixedLen returns len(appendFixed(nil, c.v, c.width, c.prec)). With
// k = width-prec-1, a value in (-(10^(k-1)-1), 10^k-1) rounds to at most
// k integer digits, or k-1 after a minus sign, so it fills exactly its
// width. Any other value (NaN, ±Inf, a wide magnitude) is formatted into
// m.buf and measured.
func (m *Monitor) fixedLen(c column) int {
	k := c.width - c.prec - 1
	if c.v < float64(pow10[k]-1) && c.v > -float64(pow10[k-1]-1) {
		return c.width
	}
	m.buf = appendFixed(m.buf[:0], c.v, c.width, c.prec)
	return len(m.buf)
}

// appendRow renders one sysstat row of family fam for the series point
// (t, v).
func appendRow(b []byte, fam int, p *Probe, t, v float64) []byte {
	b = appendStamp(b, t)
	b = append(b, ' ')
	b = append(b, p.Host...)
	b = append(b, families[fam].label...)
	var cols [3]column
	n := columns(&cols, fam, p, v)
	for j, c := range cols[:n] {
		if j > 0 {
			b = append(b, ' ')
		}
		b = appendFixed(b, c.v, c.width, c.prec)
	}
	return append(b, '\n')
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

// Series returns the sampled time series for host/metric. File renders
// the host's text from it, so callers must not append to it.
func (m *Monitor) Series(host, metric string) (*metrics.TimeSeries, bool) {
	ts, ok := m.series[host+"/"+metric]
	return ts, ok
}

// File returns the sysstat-format text collected for a host. It is
// rendered from the series: the header, then each tick's rows in probe
// order, so a host shared by several probes interleaves their rows as
// they were sampled.
func (m *Monitor) File(host string) (string, bool) {
	f, ok := m.files[host]
	if !ok {
		return "", false
	}
	b := make([]byte, 0, f.bytes)
	b = append(b, f.header...)
	// The host's probes share one series per family, each appending one
	// point per tick in probe order, so a cursor per family walks them.
	var next [numFamilies]int
	for tick := 0; tick < m.ticks; tick++ {
		for _, i := range f.probes {
			p, st := &m.probes[i], &m.state[i]
			for fam, ts := range st.series {
				if ts == nil {
					continue
				}
				pt := ts.At(next[fam])
				next[fam]++
				b = appendRow(b, fam, p, pt.T, pt.V)
			}
		}
	}
	return string(b), true
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
// quantity the paper's Table 3 reports per experiment set. It is the
// length File would render, counted while sampling.
func (m *Monitor) CollectedBytes() int {
	n := 0
	for _, f := range m.files {
		n += f.bytes
	}
	return n
}
