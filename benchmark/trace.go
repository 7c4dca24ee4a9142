package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"elba/internal/cluster"
	"elba/internal/core"
	"elba/internal/deploy"
	"elba/internal/experiment"
	"elba/internal/spec"
	"elba/internal/store"
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end time.Duration
	parent     int32 // index of the enclosing span in the same tracer, -1 = none
	job        int32 // index of the job the span belongs to
	hit        bool  // campaign.cache: served without computing
	n          int64 // experiment.trial: client requests simulated
}

// tracer records one client's spans in memory. Jobs run on their
// client's goroutine, so a tracer needs no lock; all of its methods are
// no-ops on a nil tracer, which is how untraced code paths share it.
type tracer struct {
	client int
	job    int32
	spans  []span
	stack  []int32
	counts map[string]int64
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, start: now(), end: -1, parent: parent, job: t.job})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

// end closes span i and any span opened inside it that is still open.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = now()
	for k := len(t.stack) - 1; k >= 0; k-- {
		if t.stack[k] == i {
			t.stack = t.stack[:k]
			break
		}
	}
}

// count adds v to a counter recorded at a layer boundary.
func (t *tracer) count(name string, v int64) {
	if t == nil {
		return
	}
	if t.counts == nil {
		t.counts = map[string]int64{}
	}
	t.counts[name] += v
}

// countWindows counts a committed result and its observation windows.
func (t *tracer) countWindows(r store.Result, windowSec float64) {
	if t == nil || windowSec <= 0 {
		return
	}
	t.count("experiment.results", 1)
	t.count("experiment.windows", int64(r.RunSeconds/windowSec+0.5))
}

// tracedCache wraps the shared trial cache so that every lookup gets a
// campaign.cache span and every computation inside it an
// experiment.trial span.
type tracedCache struct {
	inner experiment.TrialCache
	tr    *tracer
}

func (c *tracedCache) Do(k experiment.TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	sp := c.tr.begin("campaign.cache")
	res, hit, err := c.inner.Do(k, func() (store.Result, error) {
		t := c.tr.begin("experiment.trial")
		r, err := compute()
		c.tr.spans[t].n = r.Requests + r.Errors
		c.tr.end(t)
		return r, err
	})
	c.tr.spans[sp].hit = hit
	c.tr.end(sp)
	return res, hit, err
}

// probeLayers times generation and deployment of every topology in doc
// with calls of its own, outside the job's span: inside a sweep they
// run within the runner and cannot be wrapped from here.
func probeLayers(char *core.Characterizer, doc *spec.Document, tr *tracer) error {
	for _, ex := range doc.Experiments {
		platform, ok := char.Catalog().PlatformByName(ex.Platform)
		if !ok {
			return fmt.Errorf("platform %q not in catalog", ex.Platform)
		}
		for _, topo := range ex.AllTopologies() {
			sp := tr.begin("mulini.generate")
			d, err := char.Runner().Generator().GenerateOne(ex, topo)
			tr.end(sp)
			if err != nil {
				return err
			}
			cl, err := cluster.New(platform)
			if err != nil {
				return err
			}
			dp := deploy.NewDeployer(cl)
			sp = tr.begin("deploy.deploy")
			pl, err := dp.Deploy(d)
			tr.end(sp)
			if err != nil {
				return err
			}
			if err := dp.Undeploy(pl); err != nil {
				return err
			}
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered measures the union of the given spans' intervals clipped to
// [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(idx))
	for _, k := range idx {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
	var total time.Duration
	var curA, curB time.Duration = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes    float64
	gcCPU, allCPU float64
}

func readRuntime() runtimeStats {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(0), gcCPU: val(1), allCPU: val(2)}
}

// layerValues derives the per-layer metrics from the traced half: the
// spans of its timed jobs (warm-up excluded), the counters, and the
// runtime's counters around it.
func layerValues(tracers []*tracer, timed []jobResult, before, after runtimeStats,
	notes map[string]string) map[string]float64 {
	firstTimed := int32(clients)
	jobs := float64(len(timed))
	points := 0.0
	for _, j := range timed {
		points += float64(len(j.commits))
	}
	sum := map[string]time.Duration{}
	num := map[string]int{}
	var trialMs, logUs []float64
	var jobTime, runSelf, trialTime, hitTime, missSelf time.Duration
	var simReqs int64
	hits, lookups, misses := 0, 0, 0
	counts := map[string]int64{}
	for _, tr := range tracers {
		self := selfTimes(tr.spans)
		for i, s := range tr.spans {
			if s.job < firstTimed {
				continue
			}
			d := s.end - s.start
			sum[s.name] += d
			num[s.name]++
			switch s.name {
			case "job":
				jobTime += d
			case "experiment.run", "experiment.knee_search":
				runSelf += self[i]
			case "experiment.trial":
				trialTime += d
				simReqs += s.n
				trialMs = append(trialMs, ms(d))
			case "campaign.cache":
				lookups++
				if s.hit {
					hits++
					hitTime += d
				} else {
					misses++
					missSelf += self[i]
				}
			case "campaign.log_append":
				logUs = append(logUs, us(d))
			}
		}
		for k, v := range tr.counts {
			counts[k] += v
		}
	}
	perJob := func(name string) float64 { return ratio(us(sum[name]), jobs) }
	mean := func(name string) float64 { return ratio(us(sum[name]), float64(num[name])) }
	sort.Float64s(trialMs)
	sort.Float64s(logUs)
	notes["experiment.trial_ms_p99"] = fmt.Sprintf("n=%d", len(trialMs))
	notes["campaign.log_append_us_p99"] = fmt.Sprintf("n=%d", len(logUs))
	return map[string]float64{
		"runtime.alloc_kb_per_point":        ratio((after.allocBytes-before.allocBytes)/1024, points),
		"runtime.gc_cpu_frac":               ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU),
		"spec.parse_us_per_job":             perJob("spec.parse"),
		"core.new_us_per_job":               perJob("core.new"),
		"mulini.generate_us_per_topology":   mean("mulini.generate"),
		"deploy.deploy_us_per_topology":     mean("deploy.deploy"),
		"experiment.trial_ms_p50":           quantile(trialMs, 0.50),
		"experiment.trial_ms_p99":           quantile(trialMs, 0.99),
		"experiment.trial_share":            ratio(float64(trialTime), float64(jobTime)),
		"experiment.trial_ns_per_sim_req":   ratio(float64(trialTime), float64(simReqs)),
		"experiment.run_self_ms_per_job":    ratio(ms(runSelf), jobs),
		"experiment.fresh_trials_per_job":   ratio(float64(num["experiment.trial"]), jobs),
		"experiment.windows_per_trial":      ratio(float64(counts["experiment.windows"]), float64(counts["experiment.results"])),
		"experiment.knee_trials_per_search": ratio(float64(counts["experiment.knee_trials"]), jobs),
		"campaign.cache_hit_ratio":          ratio(float64(hits), float64(lookups)),
		"campaign.cache_hit_us":             ratio(us(hitTime), float64(hits)),
		"campaign.cache_miss_self_us":       ratio(us(missSelf), float64(misses)),
		"campaign.log_append_us_p50":        quantile(logUs, 0.50),
		"campaign.log_append_us_p99":        quantile(logUs, 0.99),
		"campaign.log_bytes_per_point":      ratio(float64(counts["campaign.log_bytes"]), points),
		"store.results_json_us_per_job":     perJob("store.results_json"),
		"report.render_us_per_job":          perJob("report.render"),
		"report.fold_us_per_point":          mean("report.fold"),
	}
}

// overhead is the traced half's mean job latency over the untraced
// half's, minus one, taken over the job indices both halves ran.
func overhead(untraced, traced []jobResult) float64 {
	lat := map[int]time.Duration{}
	for _, j := range untraced {
		lat[j.idx] = j.done - j.submit
	}
	var u, t time.Duration
	for _, j := range traced {
		if d, ok := lat[j.idx]; ok {
			u += d
			t += j.done - j.submit
		}
	}
	return ratio(float64(t), float64(u)) - 1
}

// writeChromeTrace writes every span as a Chrome trace-event "complete"
// event (chrome://tracing, Perfetto): one thread per client, the job and
// parent span in args.
func writeChromeTrace(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	for _, tr := range tracers {
		for i, s := range tr.spans {
			if s.end < 0 {
				continue
			}
			fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"job":%d`,
				sep, s.name, tr.client, us(s.start), us(s.end-s.start), i, s.parent, s.job)
			if s.name == "campaign.cache" {
				fmt.Fprintf(w, `,"hit":%t`, s.hit)
			}
			w.WriteString("}}")
			sep = ",\n"
		}
	}
	w.WriteString("]}\n")
	return errors.Join(w.Flush(), f.Close())
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
