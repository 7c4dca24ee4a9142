package main

import (
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service waits on, measured
// with tracing off.
var endToEnd = []metricDef{
	{"points_per_s", "points/s", "higher", 0.25},
	{"sim_req_per_s", "req/s", "higher", 0.25},
	{"point_p50_ms", "ms", "lower", 0.25},
	{"point_p90_ms", "ms", "lower", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"job_p90_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rss_median_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics the traced run derives for single layers.
var perLayer = []metricDef{
	{"runtime.alloc_kb_per_point", "KB", "lower", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"spec.parse_us_per_job", "us", "lower", 0},
	{"core.new_us_per_job", "us", "lower", 0},
	{"mulini.generate_us_per_topology", "us", "lower", 0},
	{"deploy.deploy_us_per_topology", "us", "lower", 0},
	{"experiment.trial_ms_p50", "ms", "lower", 0},
	{"experiment.trial_ms_p99", "ms", "lower", 0},
	{"experiment.trial_share", "frac", "lower", 0},
	{"experiment.trial_ns_per_sim_req", "ns", "lower", 0},
	{"experiment.run_self_ms_per_job", "ms", "lower", 0},
	{"experiment.fresh_trials_per_job", "count", "lower", 0},
	{"experiment.windows_per_trial", "count", "lower", 0},
	{"experiment.knee_trials_per_search", "count", "lower", 0},
	{"campaign.cache_hit_ratio", "frac", "higher", 0},
	{"campaign.cache_hit_us", "us", "lower", 0},
	{"campaign.cache_miss_self_us", "us", "lower", 0},
	{"campaign.log_append_us_p50", "us", "lower", 0},
	{"campaign.log_append_us_p99", "us", "lower", 0},
	{"campaign.log_bytes_per_point", "bytes", "lower", 0},
	{"store.results_json_us_per_job", "us", "lower", 0},
	{"report.render_us_per_job", "us", "lower", 0},
	{"report.fold_us_per_point", "us", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// quantile is the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailQuantile picks the percentile to report in place of q for n
// samples: q itself when at least minBeyond samples lie above it,
// otherwise the highest standard percentile below q that has them (the
// median when none does).
func tailQuantile(n int, q float64) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if p <= q && n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0.5
}

// tail reports the tail percentile of xs under the minBeyond rule and
// notes the sample count, and which percentile stood in if q had too
// few samples beyond it.
func tail(xs []float64, q float64, name string, notes map[string]string) float64 {
	sort.Float64s(xs)
	used := tailQuantile(len(xs), q)
	notes[name] = fmt.Sprintf("n=%d", len(xs))
	if used != q {
		notes[name] += fmt.Sprintf(" (too few samples for p%g: reporting p%g)", q*100, used*100)
	}
	return quantile(xs, used)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndValues derives the end-to-end metrics from the timed jobs.
// A point's latency is the gap between consecutive commits of one job,
// the first measured from Submit; a job's runs from Submit until its
// results and report are fetched.
func endToEndValues(timed []jobResult, elapsed time.Duration, setups []float64, rss float64,
	notes map[string]string) map[string]float64 {
	var gaps, jobs []float64
	var simReqs int64
	for _, j := range timed {
		prev := j.submit
		for _, t := range j.commits {
			gaps = append(gaps, ms(t-prev))
			prev = t
		}
		simReqs += j.simReqs
		jobs = append(jobs, (j.done - j.submit).Seconds())
	}
	sec := elapsed.Seconds()
	notes["points_per_s"] = fmt.Sprintf("%d points, %d jobs in %.3f s", len(gaps), len(jobs), sec)
	notes["setup_s"] = fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups))
	return map[string]float64{
		"points_per_s":  float64(len(gaps)) / sec,
		"sim_req_per_s": float64(simReqs) / sec,
		"point_p50_ms":  tail(gaps, 0.50, "point_p50_ms", notes),
		"point_p90_ms":  tail(gaps, 0.90, "point_p90_ms", notes),
		"job_p50_s":     tail(jobs, 0.50, "job_p50_s", notes),
		"job_p90_s":     tail(jobs, 0.90, "job_p90_s", notes),
		"setup_s":       median(setups),
		"rss_median_mb": rss,
	}
}

// rssSampler samples the process's resident set every 20 ms until
// stopped. The timed phase reports the median sample: the peak (VmHWM)
// of a Go process is set by where one garbage collection happened to
// land and varied by a third between identical runs, while the median
// moves with the working set a change actually adds or removes.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, residentMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// residentMB is the resident set in MiB from /proc/self/statm, or the
// memory the Go runtime has mapped where /proc is unavailable.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}
