package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	scale      scale
	workdir    string
	cpuprofile string
	traceout   string
	expect     string
}

// result is the JSON object printed on the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a finished run: its result plus what the summary prints.
type outcome struct {
	result   result
	digest   string
	failures []string
	notes    map[string]string
	checks   int
	start    time.Time
}

// check records one run-level check; failed ones are listed and make
// the run incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// epoch is the origin of every timestamp the harness records.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// env is a workload's environment: the services, caches and documents
// its jobs run against.
type env interface {
	// do runs job idx and returns its record. With a tracer
	// it takes the traced path, recording a span around every call into
	// a layer.
	do(idx int, tr *tracer) jobResult
	// twin opens an equivalent fresh environment in dir for the traced
	// half of a -trace 1 run.
	twin(dir string) (env, error)
	close()
}

// jobResult is one job as its client saw it.
type jobResult struct {
	idx     int
	submit  time.Duration
	done    time.Duration
	commits []time.Duration // each committed workload point, in order
	simReqs int64           // client requests the committed results carry
	// digest, report and tables are kept only for the leading jobs that
	// enter the output digest.
	digest []byte
	report string
	tables string
	// verify, when set, is a check deferred past the timed phase.
	verify func() error
	err    error
}

// drive runs jobs first, first+1, ... as a closed loop of two clients:
// client c runs jobs first+c, first+c+2, ..., submitting each only after
// the previous one returned. A client stops once the deadline has passed
// and it has run its share of the first minJobs jobs. The jobs come back
// sorted by index.
func drive(e env, first, minJobs int, deadline time.Time, tracers []*tracer) []jobResult {
	var per [clients][]jobResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
			}
			for idx := first + c; idx < first+minJobs || time.Now().Before(deadline); idx += clients {
				per[c] = append(per[c], e.do(idx, tr))
			}
		}()
	}
	wg.Wait()
	var jobs []jobResult
	for _, p := range per {
		jobs = append(jobs, p...)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].idx < jobs[b].idx })
	return jobs
}

// settle runs the jobs' deferred checks.
func settle(jobs []jobResult) {
	for i := range jobs {
		if v := jobs[i].verify; v != nil {
			jobs[i].verify = nil
			if err := v(); err != nil && jobs[i].err == nil {
				jobs[i].err = fmt.Errorf("job %d: %w", jobs[i].idx, err)
			}
		}
	}
}

// digestOf hashes the digest bytes of jobs 0..k-1 in index order.
func digestOf(jobs []jobResult, k int) (string, error) {
	h := sha256.New()
	for i := 0; i < k; i++ {
		if i >= len(jobs) || jobs[i].idx != i {
			return "", fmt.Errorf("job %d missing from the digest prefix", i)
		}
		fmt.Fprintf(h, "job %d %d\n", i, len(jobs[i].digest))
		h.Write(jobs[i].digest)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runBenchmark sets the workload up (several times, timing each), runs
// the timed phase, checks every output and derives the metrics.
func runBenchmark(cfg runConfig) (*outcome, error) {
	open := workloads[cfg.workload]
	sc := cfg.scale
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workdir)
	out := &outcome{start: time.Now(), notes: map[string]string{}}

	// Set up from scratch setupReps times; setup_s is the median and the
	// last environment is the one measured. Each set-up ends with the two
	// untimed warm-up jobs, whose outputs must not differ between set-ups.
	reps := sc.setupReps
	if cfg.trace {
		reps = 1 // a traced run reports no set-up time
	}
	var setups []float64
	var e env
	var warm []jobResult
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
			settle(warm)
		}
		t0 := time.Now()
		ne, err := open(&cfg, filepath.Join(cfg.workdir, fmt.Sprintf("setup%d", rep)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wj := drive(ne, 0, clients, time.Time{}, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if warm != nil {
			out.check(sameDigest(warm, wj, clients), "set-up %d: warm-up outputs differ from set-up %d", rep, rep-1)
		}
		e, warm = ne, wj
	}

	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			e.close()
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			e.close()
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	rss := sampleRSS()
	t0 := time.Now()
	timed := drive(e, clients, sc.digestJobs-clients, t0.Add(phase), nil)
	elapsed := time.Since(t0)
	rssMB := rss.median()
	e.close()
	settle(warm)
	settle(timed)
	all := append(append([]jobResult(nil), warm...), timed...)
	digest, err := digestOf(all, sc.digestJobs)
	out.check(err == nil, "%v", err)
	out.digest = digest

	var values map[string]float64
	var defs []metricDef
	if !cfg.trace {
		defs = endToEnd
		values = endToEndValues(timed, elapsed, setups, rssMB, out.notes)
	} else {
		defs = perLayer
		tjobs, tvals, err := tracedHalf(&cfg, e, phase, out)
		if err != nil {
			return nil, err
		}
		tdigest, err := digestOf(tjobs, sc.digestJobs)
		out.check(err == nil && tdigest == digest, "traced digest %s differs from untraced %s (%v)", tdigest, digest, err)
		for i := 0; i < sc.digestJobs && i < len(tjobs); i++ {
			out.check(tjobs[i].report == all[i].report, "job %d: traced report differs from the service's", i)
			out.check(tjobs[i].tables == all[i].tables, "job %d: traced stream tables differ from the service's", i)
		}
		tvals["trace_overhead_frac"] = overhead(timed, tjobs)
		values = tvals
		all = append(all, tjobs...)
	}
	if cfg.expect != "" {
		out.check(digest == cfg.expect, "digest %s, want pinned %s", digest, cfg.expect)
	}

	failed := len(out.failures)
	for _, j := range all {
		if j.err != nil {
			failed++
			if failed <= 20 {
				out.failures = append(out.failures, j.err.Error())
			}
		}
	}
	out.result = result{
		Correct:   failed == 0,
		Attempted: len(all) + out.checks,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		out.result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// tracedHalf runs the second half of a -trace 1 run: a fresh twin of the
// workload's environment, driven through the traced path over the same
// job sequence, and the per-layer metrics derived from its spans.
func tracedHalf(cfg *runConfig, e env, phase time.Duration, out *outcome) ([]jobResult, map[string]float64, error) {
	tracers := make([]*tracer, clients)
	for c := range tracers {
		tracers[c] = &tracer{client: c}
	}
	te, err := e.twin(filepath.Join(cfg.workdir, "traced"))
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	warm := drive(te, 0, clients, time.Time{}, tracers)
	for _, tr := range tracers {
		tr.counts = nil // counters cover the timed jobs only
	}
	before := readRuntime()
	timed := drive(te, clients, cfg.scale.digestJobs-clients, time.Now().Add(phase), tracers)
	after := readRuntime()
	te.close()
	settle(warm)
	settle(timed)
	vals := layerValues(tracers, timed, before, after, out.notes)
	if cfg.traceout != "" {
		if err := writeChromeTrace(cfg.traceout, tracers); err != nil {
			return nil, nil, err
		}
	}
	return append(warm, timed...), vals, nil
}

func sameDigest(a, b []jobResult, k int) bool {
	da, erra := digestOf(a, k)
	db, errb := digestOf(b, k)
	return erra == nil && errb == nil && da == db
}
