package main

import (
	"encoding/json"
	"fmt"

	"elba/internal/campaign"
	"elba/internal/core"
	"elba/internal/experiment"
	"elba/internal/spec"
	"elba/internal/store"
)

// kneeEnv runs fluid-knee: each job builds a characterizer on the fluid
// engine and runs one knee search with it. A characterizer keeps every
// probe's result, so one kept across jobs would grow the heap with the
// length of the run.
type kneeEnv struct {
	sc  scale
	doc func(idx int) (name, src string)
}

func openFluidKnee(cfg *runConfig, _ string) (env, error) {
	return &kneeEnv{sc: cfg.scale, doc: seeded(cfg.seed, kneeDoc)}, nil
}

func (e *kneeEnv) twin(string) (env, error) { return &kneeEnv{sc: e.sc, doc: e.doc}, nil }

func (e *kneeEnv) close() {}

// do runs one knee search. Traced, the search gets a fresh campaign
// cache behind the timing wrapper; untraced, the runner's own per-search
// fallback cache dedupes repeated probes. Both spend the same trials.
func (e *kneeEnv) do(idx int, tr *tracer) jobResult {
	_, src := e.doc(idx)
	j := &jobResult{idx: idx}
	fail := func(err error) jobResult {
		j.err = fmt.Errorf("job %d: %w", idx, err)
		return *j
	}

	j.submit = now()
	if tr != nil {
		tr.job = int32(idx)
	}
	job := tr.begin("job")
	sp := tr.begin("spec.parse")
	doc, err := spec.Parse(src)
	tr.end(sp)
	if err != nil {
		tr.end(job)
		return fail(err)
	}
	ex := doc.Experiments[0]
	window := ex.Monitor.IntervalSec * e.sc.kneeTimeScale
	sp = tr.begin("core.new")
	char, err := core.New(core.Options{
		TimeScale:     e.sc.kneeTimeScale,
		ScalingEngine: experiment.EngineFluid,
		OnTrial: func(r store.Result) {
			j.commits = append(j.commits, now())
			j.simReqs += r.Requests + r.Errors
			tr.countWindows(r, window)
		},
	})
	tr.end(sp)
	if err != nil {
		tr.end(job)
		return fail(err)
	}
	runner := char.Runner()
	if tr != nil {
		runner.TrialCache = &tracedCache{inner: campaign.NewCache(), tr: tr}
	}
	sp = tr.begin("experiment.knee_search")
	res, err := runner.KneeSearch(ex, ex.Topology, ex.Workload.WriteRatioPct.Lo, ex.SLO.AvgMS,
		e.sc.kneeLo, e.sc.kneeHi, e.sc.kneeRes)
	tr.end(sp)
	tr.end(job)
	j.done = now()
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		tr.count("experiment.knee_trials", int64(res.Trials))
		if err := probeLayers(char, doc, tr); err != nil {
			return fail(err)
		}
	}
	if err := checkKnee(res, e.sc.kneeLo, e.sc.kneeHi, e.sc.kneeRes, len(j.commits)); err != nil {
		return fail(err)
	}
	if idx < e.sc.digestJobs {
		if j.digest, err = json.Marshal(res); err != nil {
			return fail(err)
		}
	}
	return *j
}

// checkKnee checks what a knee search guarantees: a bracket no wider
// than the resolution (or the upper bound passing), every spent trial
// recorded as a probe, and a commit for every probe, cached or not.
func checkKnee(res experiment.KneeSearchResult, lo, hi, resolution, commits int) error {
	switch {
	case res.Trials < 2 || res.Trials != len(res.Probes):
		return fmt.Errorf("knee search spent %d trials but recorded %d probes", res.Trials, len(res.Probes))
	case res.ViolationUsers == 0 && res.Users != hi:
		return fmt.Errorf("knee search found no violation but reports %d users, not the upper bound %d", res.Users, hi)
	case res.ViolationUsers != 0 && (res.Users < lo || res.ViolationUsers <= res.Users || res.ViolationUsers-res.Users > resolution):
		return fmt.Errorf("knee bracket [%d, %d] is not within resolution %d", res.Users, res.ViolationUsers, resolution)
	case commits < res.Trials:
		return fmt.Errorf("knee search committed %d points for %d trials", commits, res.Trials)
	}
	return nil
}
