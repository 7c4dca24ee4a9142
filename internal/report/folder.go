package report

import (
	"fmt"
	"sort"
	"strings"

	"elba/internal/metrics"
	"elba/internal/store"
)

// FolderEvent is an online observation derived from the folded stream:
// the knee of a throughput series, the onset of SLO violations, or the
// first failed trial of a series — flagged the moment the triggering
// trial commits, not after the campaign ends.
type FolderEvent struct {
	// Kind is "knee", "slo-onset", or "failure-onset".
	Kind string `json:"kind"`
	// Key is the trial that triggered the event.
	Key store.Key `json:"key"`
	// Message is a one-line human rendering.
	Message string `json:"message"`
}

// expAgg is one experiment's running aggregate.
type expAgg struct {
	trials    int
	completed int
	requests  int64
	errors    int64
	thruSum   float64
	maxRTms   float64

	// sketch merges every trial's response-time digest in commit order;
	// approx marks streams that included sketch-free results folded in
	// through the coarse weighted fallback (stored percentiles as
	// weighted points), so the rendered quantiles are flagged.
	sketch *metrics.TDigest
	approx bool

	tierCPUSum map[string]float64
	tierCPUCnt map[string]int

	sloAsserted   bool
	sloWindows    int
	sloViolations int
	scaleEvents   int
}

// seriesKey identifies one throughput series: a topology swept over the
// population axis at one write ratio.
type seriesKey struct {
	experiment string
	topology   string
	wr         float64
}

// seriesState is the per-series online-detection state.
type seriesState struct {
	knee        KneeDetector
	sloOnsetAt  int
	failOnsetAt int
}

// Folder consumes one store.Result at a time — live from a runner's
// OnTrial hook or replayed from a campaign's result log — and maintains
// the campaign's running tables in O(sketch) memory: counters, running
// means, and one merged t-digest per experiment, never the trials
// themselves. Folding the same result sequence always produces the same
// tables and the same events, which is what makes the append-only log a
// complete record of a streamed campaign.
//
// Folder is not safe for concurrent use; callers folding from multiple
// goroutines (Runner.OnTrial with Parallel > 1) must serialize Ingest.
type Folder struct {
	order  []string
	exps   map[string]*expAgg
	series map[seriesKey]*seriesState
}

// NewFolder creates an empty folder.
func NewFolder() *Folder {
	return &Folder{
		exps:   map[string]*expAgg{},
		series: map[seriesKey]*seriesState{},
	}
}

// Ingest folds one result into the running tables and returns any
// events it triggered (nil for the common quiet trial). Steady-state
// ingestion allocates nothing: aggregates are allocated once per
// experiment and series, and events only materialize when fired.
func (f *Folder) Ingest(r store.Result) []FolderEvent {
	name := r.Key.Experiment
	agg, ok := f.exps[name]
	if !ok {
		agg = &expAgg{
			sketch:     metrics.NewTDigest(metrics.DefaultTDigestCompression),
			tierCPUSum: map[string]float64{},
			tierCPUCnt: map[string]int{},
		}
		f.exps[name] = agg
		f.order = append(f.order, name)
	}
	agg.trials++
	if r.Completed {
		agg.completed++
	}
	agg.requests += r.Requests
	agg.errors += r.Errors
	agg.thruSum += r.Throughput
	if r.MaxRTms > agg.maxRTms {
		agg.maxRTms = r.MaxRTms
	}
	switch {
	case r.RTSketch != nil:
		agg.sketch.Merge(r.RTSketch)
	case r.Requests > 0:
		// Sketch-free result (historical data, or the fluid engine, which
		// has no per-request stream): fold the stored percentiles in as
		// weighted points. Coarse — the quantile columns are flagged "~"
		// once any such result is present.
		foldPercentiles(agg.sketch, r)
		agg.approx = true
	}
	for tier, u := range r.TierCPU {
		agg.tierCPUSum[tier] += u
		agg.tierCPUCnt[tier]++
	}
	if r.SLOAssert != "" {
		agg.sloAsserted = true
		agg.sloWindows += r.SLOWindows
		agg.sloViolations += r.SLOViolations
	}
	agg.scaleEvents += len(r.ScaleEvents)

	sk := seriesKey{experiment: name, topology: r.Key.Topology, wr: r.Key.WriteRatioPct}
	ss, ok := f.series[sk]
	if !ok {
		ss = &seriesState{}
		f.series[sk] = ss
	}
	var events []FolderEvent
	if r.Completed && ss.knee.Observe(r.Key.Users, r.Throughput) {
		events = append(events, FolderEvent{
			Kind: "knee",
			Key:  r.Key,
			Message: fmt.Sprintf("knee: %s/%s w=%g%% throughput flattens at %d users (%.1f req/s)",
				name, r.Key.Topology, r.Key.WriteRatioPct, r.Key.Users, r.Throughput),
		})
	}
	if r.SLOViolations > 0 && ss.sloOnsetAt == 0 {
		ss.sloOnsetAt = r.Key.Users
		events = append(events, FolderEvent{
			Kind: "slo-onset",
			Key:  r.Key,
			Message: fmt.Sprintf("slo-onset: %s/%s w=%g%% first violates its SLO at %d users (%d/%d windows)",
				name, r.Key.Topology, r.Key.WriteRatioPct, r.Key.Users, r.SLOViolations, r.SLOWindows),
		})
	}
	if !r.Completed && ss.failOnsetAt == 0 {
		ss.failOnsetAt = r.Key.Users
		events = append(events, FolderEvent{
			Kind: "failure-onset",
			Key:  r.Key,
			Message: fmt.Sprintf("failure-onset: %s/%s w=%g%% fails to complete at %d users (%s)",
				name, r.Key.Topology, r.Key.WriteRatioPct, r.Key.Users, r.FailReason),
		})
	}
	return events
}

// foldPercentiles adds a sketch-free result's stored percentiles to the
// digest as weighted points approximating the trial's distribution: half
// the requests at the median, most of the rest at p90, the tail at p99
// and the maximum.
func foldPercentiles(d *metrics.TDigest, r store.Result) {
	req := uint64(r.Requests)
	if req < 10 {
		d.Add(r.P50ms, req)
		return
	}
	wMax := req / 100
	if wMax == 0 {
		wMax = 1
	}
	w99 := req * 9 / 100
	if w99 == 0 {
		w99 = 1
	}
	w90 := req * 2 / 5
	w50 := req - w90 - w99 - wMax
	d.Add(r.P50ms, w50)
	d.Add(r.P90ms, w90)
	d.Add(r.P99ms, w99)
	d.Add(r.MaxRTms, wMax)
}

// Quantiles reports an experiment's running campaign-level response-time
// quantiles in milliseconds from the merged sketch, plus whether any
// folded result lacked a sketch (making the figures approximate).
func (f *Folder) Quantiles(experiment string, qs ...float64) (vals []float64, approx bool, ok bool) {
	agg, found := f.exps[experiment]
	if !found || agg.sketch.Count() == 0 {
		return nil, false, false
	}
	vals = make([]float64, len(qs))
	for i, q := range qs {
		vals[i] = agg.sketch.Quantile(q)
	}
	return vals, agg.approx, true
}

// Knees lists every detected knee and onset so far, in a deterministic
// (experiment, topology, write-ratio) order.
func (f *Folder) Knees() []KneeRow {
	keys := make([]seriesKey, 0, len(f.series))
	for k, ss := range f.series {
		if ss.knee.Knee() == 0 && ss.sloOnsetAt == 0 && ss.failOnsetAt == 0 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].experiment != keys[j].experiment {
			return keys[i].experiment < keys[j].experiment
		}
		if keys[i].topology != keys[j].topology {
			return keys[i].topology < keys[j].topology
		}
		return keys[i].wr < keys[j].wr
	})
	rows := make([]KneeRow, len(keys))
	for i, k := range keys {
		ss := f.series[k]
		rows[i] = KneeRow{
			Experiment:    k.experiment,
			Topology:      k.topology,
			WriteRatioPct: k.wr,
			KneeUsers:     ss.knee.Knee(),
			SLOOnsetUsers: ss.sloOnsetAt,
			FailUsers:     ss.failOnsetAt,
		}
	}
	return rows
}

// KneeRow is one series' detected knee and onsets (0 = not observed).
type KneeRow struct {
	Experiment    string  `json:"experiment"`
	Topology      string  `json:"topology"`
	WriteRatioPct float64 `json:"write_ratio_pct"`
	KneeUsers     int     `json:"knee_users,omitempty"`
	SLOOnsetUsers int     `json:"slo_onset_users,omitempty"`
	FailUsers     int     `json:"fail_users,omitempty"`
}

// Tables renders the running tables: the campaign summary (throughput
// and sketch quantiles per experiment), mean tier utilization, the
// SLO/scaling counters when any experiment observed them, and the
// detected knees. The rendering is a pure function of the folded
// multiset plus the fold order of each experiment's digests, so a log
// replay reproduces it byte-for-byte.
func (f *Folder) Tables() string {
	var b strings.Builder

	sum := NewTable("Streamed campaign summary",
		"experiment", "trials", "done", "requests", "errors",
		"avg thr (req/s)", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)")
	for _, name := range f.order {
		agg := f.exps[name]
		mark := ""
		if agg.approx {
			mark = "~"
		}
		q := func(p float64) string {
			if agg.sketch.Count() == 0 {
				return "-"
			}
			return fmt.Sprintf("%s%.1f", mark, agg.sketch.Quantile(p))
		}
		avgThr := 0.0
		if agg.trials > 0 {
			avgThr = agg.thruSum / float64(agg.trials)
		}
		sum.AddRow(name,
			fmt.Sprintf("%d", agg.trials),
			fmt.Sprintf("%d", agg.completed),
			fmt.Sprintf("%d", agg.requests),
			fmt.Sprintf("%d", agg.errors),
			fmt.Sprintf("%.1f", avgThr),
			q(0.50), q(0.90), q(0.99),
			fmt.Sprintf("%.1f", agg.maxRTms))
	}
	b.WriteString(sum.String())

	util := NewTable("Streamed resource utilization (mean CPU %)",
		"experiment", "tier", "cpu %")
	for _, name := range f.order {
		agg := f.exps[name]
		tiers := make([]string, 0, len(agg.tierCPUSum))
		for tier := range agg.tierCPUSum {
			tiers = append(tiers, tier)
		}
		sort.Strings(tiers)
		for _, tier := range tiers {
			util.AddRow(name, tier,
				fmt.Sprintf("%.1f", agg.tierCPUSum[tier]/float64(agg.tierCPUCnt[tier])))
		}
	}
	if util.Rows() > 0 {
		b.WriteString("\n")
		b.WriteString(util.String())
	}

	anySLO := false
	for _, agg := range f.exps {
		if agg.sloAsserted || agg.scaleEvents > 0 {
			anySLO = true
		}
	}
	if anySLO {
		slo := NewTable("Streamed SLO & scaling",
			"experiment", "slo windows", "violations", "scale events")
		for _, name := range f.order {
			agg := f.exps[name]
			if !agg.sloAsserted && agg.scaleEvents == 0 {
				continue
			}
			slo.AddRow(name,
				fmt.Sprintf("%d", agg.sloWindows),
				fmt.Sprintf("%d", agg.sloViolations),
				fmt.Sprintf("%d", agg.scaleEvents))
		}
		b.WriteString("\n")
		b.WriteString(slo.String())
	}

	if rows := f.Knees(); len(rows) > 0 {
		knees := NewTable("Detected knees & onsets",
			"experiment", "topology", "write %", "knee users", "slo onset", "first failure")
		cell := func(v int) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		for _, r := range rows {
			knees.AddRow(r.Experiment, r.Topology,
				fmt.Sprintf("%g", r.WriteRatioPct),
				cell(r.KneeUsers), cell(r.SLOOnsetUsers), cell(r.FailUsers))
		}
		b.WriteString("\n")
		b.WriteString(knees.String())
	}
	return b.String()
}
