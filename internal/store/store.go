// Package store is the results database the experiment infrastructure
// writes into: "after each set of experiments, performance data collected
// from the participating hosts is put into a database for analysis"
// (paper §II). It holds per-trial results keyed by experiment,
// configuration, and workload point, answers the queries the report
// renderers need, and round-trips through JSON and CSV.
package store

import (
	"encoding/json"

	"elba/internal/metrics"
	"elba/internal/trace"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Key identifies one trial: an experiment set, a w-a-d configuration, and
// a workload point.
type Key struct {
	// Experiment names the experiment set.
	Experiment string `json:"experiment"`
	// Topology is the w-a-d triple, e.g. "1-8-2".
	Topology string `json:"topology"`
	// Users is the concurrent-user population.
	Users int `json:"users"`
	// WriteRatioPct is the database write ratio in percent.
	WriteRatioPct float64 `json:"write_ratio_pct"`
}

// String renders the key for logs.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/u=%d/w=%g%%", k.Experiment, k.Topology, k.Users, k.WriteRatioPct)
}

// Result is one trial's measured outcome.
type Result struct {
	Key Key `json:"key"`

	// Completed is false when the trial failed to finish (overload,
	// connection-pool exhaustion) — the paper's "missing squares".
	Completed  bool   `json:"completed"`
	FailReason string `json:"fail_reason,omitempty"`

	// Engine records which trial engine produced the result ("des" or
	// "fluid"); empty for the historical default DES path, so
	// serializations of specs without a scaling clause stay byte-identical.
	Engine string `json:"engine,omitempty"`

	// Response-time statistics in milliseconds over successful requests.
	AvgRTms float64 `json:"avg_rt_ms"`
	P50ms   float64 `json:"p50_ms"`
	P90ms   float64 `json:"p90_ms"`
	P99ms   float64 `json:"p99_ms"`
	MaxRTms float64 `json:"max_rt_ms"`

	// Throughput is successful client requests per second.
	Throughput float64 `json:"throughput_rps"`
	// Requests and Errors count measured requests and failures.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`

	// TierCPU maps tier name → mean CPU utilization percent during the
	// run period, averaged across the tier's nodes.
	TierCPU map[string]float64 `json:"tier_cpu,omitempty"`
	// HostCPU maps role → mean CPU utilization percent.
	HostCPU map[string]float64 `json:"host_cpu,omitempty"`

	// TierDisk and TierNet map tier name → mean disk / network-link
	// utilization percent. Populated only when the experiment declares
	// demands on those resources, so historical serializations stay
	// byte-identical.
	TierDisk map[string]float64 `json:"tier_disk,omitempty"`
	TierNet  map[string]float64 `json:"tier_net,omitempty"`
	// HostDisk and HostNet are the per-role equivalents.
	HostDisk map[string]float64 `json:"host_disk,omitempty"`
	HostNet  map[string]float64 `json:"host_net,omitempty"`

	// CollectedBytes sizes the monitoring data gathered for this trial.
	CollectedBytes int `json:"collected_bytes"`
	// RunSeconds is the measured run-period length.
	RunSeconds float64 `json:"run_seconds"`

	// PerInteraction maps interaction name → mean response time (ms),
	// the per-interaction breakdown the benchmark client emulators print.
	PerInteraction map[string]float64 `json:"per_interaction,omitempty"`

	// Fault-injection bookkeeping. All fields are zero/empty when no
	// fault profile is active, so no-fault serializations stay
	// byte-identical to historical output.

	// FaultProfile names the fault profile active for this trial.
	FaultProfile string `json:"fault_profile,omitempty"`
	// FaultEvents lists the injected in-trial fault windows, rendered
	// compactly in schedule order.
	FaultEvents []string `json:"fault_events,omitempty"`
	// InjectedErrors counts requests failed by error bursts during the
	// measurement window.
	InjectedErrors int64 `json:"injected_errors,omitempty"`
	// SLO-assert bookkeeping. All fields are zero/empty when the spec
	// declares no assert expression, so expression-free serializations
	// stay byte-identical to historical output.

	// SLOAssert is the canonical source of the spec's assert expression.
	SLOAssert string `json:"slo_assert,omitempty"`
	// SLOWindows counts the measurement windows the assert was evaluated
	// in (one per monitor interval across the run period).
	SLOWindows int `json:"slo_windows,omitempty"`
	// SLOViolations counts windows whose assert evaluated false.
	SLOViolations int `json:"slo_violations,omitempty"`
	// SLOViolatedAt lists the violating windows' start times, in protocol
	// seconds from the run period's start (time-scale–invariant).
	SLOViolatedAt []float64 `json:"slo_violated_at,omitempty"`
	// ScaleEvents lists autoscaling-policy firings during the measured
	// run, in firing order. Empty for policy-free specs, so their
	// serializations stay byte-identical to historical output.
	ScaleEvents []ScaleEvent `json:"scale_events,omitempty"`

	// DeployRetries counts deployment-step retries during run.sh.
	DeployRetries int `json:"deploy_retries,omitempty"`
	// DeploySeconds is simulated time lost to deploy timeouts/backoffs.
	DeploySeconds float64 `json:"deploy_seconds,omitempty"`
	// Attempts counts trial attempts consumed at this workload point
	// (1 = succeeded first try; set only when a retry budget is active).
	Attempts int `json:"attempts,omitempty"`

	// RTSketch is the trial's mergeable response-time quantile sketch in
	// milliseconds (a t-digest over the same successful-request stream
	// that produced P50/P90/P99), recorded only when the runner runs with
	// sketches enabled (the streaming path). Nil otherwise, so
	// sketch-free serializations stay byte-identical to historical
	// output. The campaign folder merges these in canonical commit order
	// to report campaign-level quantiles in O(sketch) memory.
	RTSketch *metrics.TDigest `json:"rt_sketch,omitempty"`

	// Trace is the request-level tracing report (per-tier latency
	// decomposition, critical-path verdict, slowest-trace exemplars) when
	// the trial ran with tracing enabled. Nil otherwise, so untraced
	// serializations stay byte-identical to historical output.
	Trace *trace.Report `json:"trace,omitempty"`

	// Replicas counts the independent repetitions aggregated into this
	// result (1 = a single trial).
	Replicas int `json:"replicas,omitempty"`
	// AvgRTCI95ms and ThroughputCI95 are 95% confidence half-widths of
	// the replica means (0 for single trials).
	AvgRTCI95ms    float64 `json:"avg_rt_ci95_ms,omitempty"`
	ThroughputCI95 float64 `json:"throughput_ci95,omitempty"`
}

// ScaleEvent records one autoscaling-policy firing: at a window
// boundary TSec (protocol seconds from run start, time-scale–invariant)
// the named tier's replica count moved From → To.
type ScaleEvent struct {
	TSec float64 `json:"t_sec"`
	Tier string  `json:"tier"`
	From int     `json:"from"`
	To   int     `json:"to"`
}

// String renders the event compactly for reports and logs.
func (e ScaleEvent) String() string {
	return fmt.Sprintf("t=%gs %s %d→%d", e.TSec, e.Tier, e.From, e.To)
}

// ErrorRate reports errors over total measured requests.
func (r *Result) ErrorRate() float64 {
	total := r.Requests + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.Errors) / float64(total)
}

// Store is an in-memory, concurrency-safe result set.
type Store struct {
	mu      sync.RWMutex
	results []*Result
	byKey   map[Key]*Result
}

// New creates an empty store.
func New() *Store {
	return &Store{byKey: map[Key]*Result{}}
}

// Put inserts or replaces a trial result.
func (s *Store) Put(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byKey[r.Key]; ok {
		*old = r
		return
	}
	cp := r
	s.results = append(s.results, &cp)
	s.byKey[r.Key] = &cp
}

// Get fetches a trial result by key.
func (s *Store) Get(k Key) (Result, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byKey[k]
	if !ok {
		return Result{}, false
	}
	return *r, true
}

// Len reports the number of stored results.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.results)
}

// Filter selects results matching the predicate, in insertion order.
func (s *Store) Filter(pred func(Result) bool) []Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Result
	for _, r := range s.results {
		if pred(*r) {
			out = append(out, *r)
		}
	}
	return out
}

// All returns every result in insertion order.
func (s *Store) All() []Result { return s.Filter(func(Result) bool { return true }) }

// Topologies lists distinct topologies for an experiment, sorted by
// app-count then db-count (natural scale-out order).
func (s *Store) Topologies(experiment string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	for _, r := range s.results {
		if r.Key.Experiment == experiment {
			seen[r.Key.Topology] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return topoLess(out[i], out[j]) })
	return out
}

// topoLess orders "w-a-d" triples by (a, d, w).
func topoLess(a, b string) bool {
	pa, pb := topoParts(a), topoParts(b)
	if pa[1] != pb[1] {
		return pa[1] < pb[1]
	}
	if pa[2] != pb[2] {
		return pa[2] < pb[2]
	}
	return pa[0] < pb[0]
}

func topoParts(s string) [3]int {
	var out [3]int
	parts := strings.Split(s, "-")
	for i := 0; i < len(parts) && i < 3; i++ {
		fmt.Sscanf(parts[i], "%d", &out[i])
	}
	return out
}

// SeriesPoint is one (x, y) pair extracted from the store.
type SeriesPoint struct {
	X float64
	Y float64
	// OK is false for failed trials, which plots render as gaps.
	OK bool
}

// RTvsUsers extracts mean response time (ms) against users for one
// experiment, topology, and write ratio — the paper's Figure 5/6 line.
func (s *Store) RTvsUsers(experiment, topology string, writeRatioPct float64) []SeriesPoint {
	return s.extract(experiment, topology, writeRatioPct, func(r Result) float64 { return r.AvgRTms })
}

// TierCPUVsUsers extracts a tier's mean CPU utilization against users
// (Figure 8's DB curves).
func (s *Store) TierCPUVsUsers(experiment, topology, tier string, writeRatioPct float64) []SeriesPoint {
	return s.extract(experiment, topology, writeRatioPct, func(r Result) float64 { return r.TierCPU[tier] })
}

func (s *Store) extract(experiment, topology string, wr float64, y func(Result) float64) []SeriesPoint {
	rs := s.Filter(func(r Result) bool {
		return r.Key.Experiment == experiment && r.Key.Topology == topology &&
			r.Key.WriteRatioPct == wr
	})
	sort.Slice(rs, func(i, j int) bool { return rs[i].Key.Users < rs[j].Key.Users })
	out := make([]SeriesPoint, len(rs))
	for i, r := range rs {
		out[i] = SeriesPoint{X: float64(r.Key.Users), Y: y(r), OK: r.Completed}
	}
	return out
}

// Surface extracts a (users × write-ratio) grid of a metric for one
// experiment and topology, the paper's 3-D Figures 1–3. Returns sorted
// axis values and a row-major grid indexed [writeRatio][users]; failed
// cells carry NaN-like -1 sentinel via OK=false in Cell.
type Surface struct {
	Users       []int
	WriteRatios []float64
	// Cells[i][j] is the metric at WriteRatios[i], Users[j].
	Cells [][]SurfaceCell
}

// SurfaceCell is one grid cell.
type SurfaceCell struct {
	Value float64
	OK    bool
}

// RTSurface builds the response-time surface (ms).
func (s *Store) RTSurface(experiment, topology string) Surface {
	return s.surface(experiment, topology, func(r Result) float64 { return r.AvgRTms })
}

// CPUSurface builds the app-tier CPU-utilization surface (percent),
// Figure 2's metric.
func (s *Store) CPUSurface(experiment, topology, tier string) Surface {
	return s.surface(experiment, topology, func(r Result) float64 { return r.TierCPU[tier] })
}

func (s *Store) surface(experiment, topology string, y func(Result) float64) Surface {
	rs := s.Filter(func(r Result) bool {
		return r.Key.Experiment == experiment && r.Key.Topology == topology
	})
	userSet := map[int]bool{}
	wrSet := map[float64]bool{}
	for _, r := range rs {
		userSet[r.Key.Users] = true
		wrSet[r.Key.WriteRatioPct] = true
	}
	var sf Surface
	for u := range userSet {
		sf.Users = append(sf.Users, u)
	}
	sort.Ints(sf.Users)
	for w := range wrSet {
		sf.WriteRatios = append(sf.WriteRatios, w)
	}
	sort.Float64s(sf.WriteRatios)
	uIdx := map[int]int{}
	for i, u := range sf.Users {
		uIdx[u] = i
	}
	wIdx := map[float64]int{}
	for i, w := range sf.WriteRatios {
		wIdx[w] = i
	}
	sf.Cells = make([][]SurfaceCell, len(sf.WriteRatios))
	for i := range sf.Cells {
		sf.Cells[i] = make([]SurfaceCell, len(sf.Users))
	}
	for _, r := range rs {
		sf.Cells[wIdx[r.Key.WriteRatioPct]][uIdx[r.Key.Users]] = SurfaceCell{
			Value: y(r), OK: r.Completed,
		}
	}
	return sf
}

// keyLess orders results canonically: experiment, topology (scale-out
// order), write ratio, then users.
func keyLess(a, b Key) bool {
	if a.Experiment != b.Experiment {
		return a.Experiment < b.Experiment
	}
	if a.Topology != b.Topology {
		return topoLess(a.Topology, b.Topology)
	}
	if a.WriteRatioPct != b.WriteRatioPct {
		return a.WriteRatioPct < b.WriteRatioPct
	}
	return a.Users < b.Users
}

// sortedResults snapshots the results in canonical key order. Serialized
// output is therefore byte-identical however trials were scheduled —
// concurrent sweeps insert in nondeterministic order, but exports never
// show it. Callers must hold at least a read lock.
func (s *Store) sortedResults() []*Result {
	out := make([]*Result, len(s.results))
	copy(out, s.results)
	sort.SliceStable(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

// MarshalJSON serializes the whole store in canonical key order.
func (s *Store) MarshalJSON() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return json.MarshalIndent(s.sortedResults(), "", "  ")
}

// CSV renders all results as a flat CSV table in canonical key order.
func (s *Store) CSV() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	b.WriteString("experiment,topology,users,write_ratio_pct,completed,avg_rt_ms,p90_ms,throughput_rps,requests,errors,web_cpu,app_cpu,db_cpu\n")
	for _, r := range s.sortedResults() {
		fmt.Fprintf(&b, "%s,%s,%d,%g,%t,%.2f,%.2f,%.2f,%d,%d,%.1f,%.1f,%.1f\n",
			r.Key.Experiment, r.Key.Topology, r.Key.Users, r.Key.WriteRatioPct,
			r.Completed, r.AvgRTms, r.P90ms, r.Throughput, r.Requests, r.Errors,
			r.TierCPU["web"], r.TierCPU["app"], r.TierCPU["db"])
	}
	return b.String()
}

// SurfaceCorrelation computes the Pearson correlation between two
// surfaces' completed cells at matching coordinates — the quantitative
// form of the paper's observation that Figures 1 and 2 "show correlated
// peaks in response time and application server CPU consumption".
func SurfaceCorrelation(a, b Surface) (float64, int) {
	type coord struct {
		wr float64
		u  int
	}
	bv := map[coord]float64{}
	for i, wr := range b.WriteRatios {
		for j, u := range b.Users {
			if b.Cells[i][j].OK {
				bv[coord{wr, u}] = b.Cells[i][j].Value
			}
		}
	}
	var xs, ys []float64
	for i, wr := range a.WriteRatios {
		for j, u := range a.Users {
			if !a.Cells[i][j].OK {
				continue
			}
			if y, ok := bv[coord{wr, u}]; ok {
				xs = append(xs, a.Cells[i][j].Value)
				ys = append(ys, y)
			}
		}
	}
	return metrics.Pearson(xs, ys), len(xs)
}
