// Package monitor implements the system-level monitoring layer that
// Mulini parameterizes per host (paper §II): samplers that read simulated
// host counters on a fixed interval and emit sysstat-style records. The
// collected text files are what the paper stores by the gigabyte
// (Table 3's "collected perf. data size"); the CPU-utilization series
// feed Figures 2 and 8.
package monitor

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"elba/internal/metrics"
	"elba/internal/sim"
)

// Probe describes one monitored host: the counters its rows are derived
// from. Each counter is a function the trial engine supplies, whatever
// models the host; a nil counter is a signal the host does not have.
type Probe struct {
	// Host is the node hostname the monitor runs on.
	Host string
	// Role is the deployment role (APP1, MYSQL2, ...).
	Role string
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
	// CPUBusy returns the host's cumulative CPU busy-seconds. It is nil
	// for hosts that run no modelled service (the client node).
	CPUBusy func() float64
	// CPUServers is the core count dividing a CPU busy window (minimum 1).
	CPUServers int
	// Jobs returns the host's current in-flight request level (nil =
	// none).
	Jobs func() float64
	// DiskBusy returns the cumulative busy-seconds of the host's
	// contended disk, when the experiment declares disk demands (nil =
	// none). Its deltas yield the %util column of the disk rows.
	DiskBusy func() float64
	// NetBusy returns the cumulative busy-seconds of the host's
	// contended network link, when the experiment declares payload
	// demands (nil = none).
	NetBusy func() float64
}

// Config configures a monitoring session.
type Config struct {
	// IntervalSec is the sampling interval from the TBL monitor clause.
	IntervalSec float64
	// Metrics enables metric families: cpu, memory, network, disk.
	Metrics []string
	// HorizonSec is how long sampling runs after Start, when the caller
	// knows it: Start then sizes every series for the whole run, so
	// sampling never regrows one (0 = grow as samples arrive).
	HorizonSec float64
}

// Monitor samples a set of probes on a simulation kernel.
type Monitor struct {
	k       *sim.Kernel
	cfg     Config
	probes  []Probe
	running bool

	// state caches per-probe series and counter windows so a sample tick
	// does no map lookups or key concatenation.
	state  []probeState
	ticks  int    // sampling ticks taken so far
	buf    []byte // reused to measure values wider than their column
	tickFn func() // m.tick, bound once: binding it per Schedule allocates

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

// families describes each family: its series, the row text between the
// host and the values, the TBL monitor metric that enables it, and
// whether it is a utilization, a busy-time rate capped at 1 and recorded
// as a percentage.
var families = [numFamilies]struct {
	series, label, metric string
	util                  bool
}{
	famCPU:      {"cpu", " cpu all ", "cpu", true},
	famMem:      {"memory", " mem ", "memory", false},
	famNet:      {"network", " net eth0 ", "network", false},
	famDisk:     {"disk", " disk sda ", "disk", false},
	famDiskUtil: {"disk-util", " disk sda %util ", "disk", true},
	famNetUtil:  {"net-util", " net eth0 %util ", "network", true},
}

// stampLen is the length of an HH:MM:SS stamp.
const stampLen = 8

// probeState is the resolved hot-path state for one probe: its host's
// file, the series receiving each family's values (nil = family not
// sampled), and each family's cumulative counter (nil = none; memory
// reads a gauge instead), the divisor turning a counter's delta into a
// rate, and the counter's previous reading.
type probeState struct {
	file    *hostFile
	series  [numFamilies]*metrics.TimeSeries
	counter [numFamilies]func() float64
	div     [numFamilies]float64
	last    [numFamilies]float64
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
	m.tickFn = m.tick
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
		st.counter = [numFamilies]func() float64{
			famCPU: p.CPUBusy, famNet: p.NetBytes, famDisk: p.DiskOps,
			famDiskUtil: p.DiskBusy, famNetUtil: p.NetBusy,
		}
		for fam, family := range families {
			st.div[fam] = cfg.IntervalSec
			// cpu and memory have a row on every probe, cpu reading idle
			// without a counter; the other families need their counter.
			if slices.Contains(cfg.Metrics, family.metric) &&
				(st.counter[fam] != nil || fam == famCPU || fam == famMem) {
				st.series[fam] = m.seriesFor(p.Host, family.series)
			}
		}
		// A CPU busy window is shared by the host's cores.
		st.div[famCPU] *= float64(max(p.CPUServers, 1))
	}
	return m, nil
}

// seriesFor returns the time series for host/metric, creating it on first
// use. Probes sharing a host share the series, as record() always did.
func (m *Monitor) seriesFor(host, metric string) *metrics.TimeSeries {
	key := host + "/" + metric
	ts, ok := m.series[key]
	if !ok {
		ts = &metrics.TimeSeries{}
		m.series[key] = ts
	}
	return ts
}

// Start begins periodic sampling. Sampling continues until Stop.
func (m *Monitor) Start() {
	m.running = true
	// Prime counters so the first window starts at Start, not at t=0.
	for i := range m.state {
		st := &m.state[i]
		for fam, read := range st.counter {
			if read != nil {
				st.last[fam] = read()
			}
		}
	}
	if m.cfg.HorizonSec > 0 {
		// One tick more than fit the horizon, for the float drift of
		// the tick times.
		m.reserve(int(m.cfg.HorizonSec/m.cfg.IntervalSec) + 1)
	}
	m.k.Schedule(m.cfg.IntervalSec, m.tickFn)
}

// reserve makes room in every series for ticks more sampling ticks: a
// point per tick from each of the host's probes that append to it.
func (m *Monitor) reserve(ticks int) {
	for _, f := range m.files {
		var n [numFamilies]int
		var series [numFamilies]*metrics.TimeSeries
		for _, i := range f.probes {
			for fam, ts := range m.state[i].series {
				if ts != nil {
					n[fam]++
					series[fam] = ts
				}
			}
		}
		for fam, ts := range series {
			if ts != nil {
				ts.Grow(n[fam] * ticks)
			}
		}
	}
}

// Stop halts sampling after the current interval and lets go of the
// kernel, which its owner may then release for another trial; the
// collected series and files stay readable.
func (m *Monitor) Stop() {
	m.running = false
	m.k = nil
}

func (m *Monitor) tick() {
	if !m.running {
		return
	}
	now := m.k.Now()
	for i := range m.probes {
		m.sample(&m.probes[i], &m.state[i], now)
	}
	m.ticks++
	m.k.Schedule(m.cfg.IntervalSec, m.tickFn)
}

// sample records one value per enabled metric family in the family's
// series and counts the sysstat row it renders to. No text is written
// here — File renders rows from the series — so steady-state sampling
// allocates nothing beyond amortized series growth; collection volume is
// Table 3 scale, so this path runs millions of times per sweep.
func (m *Monitor) sample(p *Probe, st *probeState, now float64) {
	// Ranging over the array itself would copy it on every sample.
	for fam, ts := range &st.series {
		if ts == nil {
			continue
		}
		var v float64 // cpu without a counter reads idle
		if read := st.counter[fam]; read != nil {
			cum := read()
			v = (cum - st.last[fam]) / st.div[fam]
			st.last[fam] = cum
		} else if fam == famMem {
			v = p.BaseMemMB
			if p.Jobs != nil {
				v += p.Jobs() * p.MemPerJobMB
			}
			if p.TotalMemMB > 0 && v > p.TotalMemMB {
				v = p.TotalMemMB
			}
		}
		if families[fam].util {
			if v > 1 {
				v = 1
			}
			v *= 100
		}
		m.record(p, st, fam, now, v)
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
	b = strconv.AppendFloat(b, v, 'f', prec, 64)
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
