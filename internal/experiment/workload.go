// Package experiment executes TBL experiments end to end on the simulated
// testbed: it generates deployments with Mulini, deploys them by running
// the generated scripts, builds the queueing-network instance of the
// deployed application, drives it through the paper's
// warm-up/run/cool-down trial protocol (§III.B), collects monitor output,
// and stores per-trial results. The scale-out controller implements the
// paper's §V.A strategy of growing the observed bottleneck tier.
package experiment

import (
	"fmt"
	"sync"

	"elba/internal/bench"
	"elba/internal/bench/rubbos"
	"elba/internal/bench/rubis"
	"elba/internal/bench/tpcapp"
	"elba/internal/spec"
)

// Model builds the benchmark workload model for an experiment at a given
// write ratio (percent). The think time may be overridden by the TBL
// workload clause.
func Model(e *spec.Experiment, writeRatioPct float64) (*bench.Profile, error) {
	var p *bench.Profile
	var err error
	switch e.Benchmark {
	case "rubis":
		var server rubis.AppServer
		switch e.AppServer {
		case "jonas", "":
			server = rubis.JOnAS
		case "weblogic":
			server = rubis.WebLogic
		default:
			return nil, fmt.Errorf("experiment: rubis cannot run on %q", e.AppServer)
		}
		p, err = rubis.New(server, writeRatioPct/100)
	case "rubbos":
		switch e.Mix {
		case "read-only":
			p, err = rubbos.NewReadOnly()
		case "submission", "":
			wr := writeRatioPct / 100
			if wr == 0 {
				wr = rubbos.DefaultWriteRatio
			}
			p, err = rubbos.NewSubmission(wr)
		default:
			return nil, fmt.Errorf("experiment: unknown rubbos mix %q", e.Mix)
		}
	case "tpcapp":
		p, err = tpcapp.New()
	default:
		return nil, fmt.Errorf("experiment: unknown benchmark %q", e.Benchmark)
	}
	if err != nil {
		return nil, err
	}
	if e.Workload.ThinkTimeSec > 0 {
		return bench.NewProfile(p.Name(), p.Matrix(), e.Workload.ThinkTimeSec)
	}
	return p, nil
}

// workloadModels builds each workload model once and hands the same
// Profile to every trial that asks for it. Sharing is safe: a Profile and
// its matrix never change once built, and the matrix computes its
// stationary vector once, under a sync.Once.
type workloadModels struct {
	mu sync.Mutex
	m  map[modelKey]*bench.Profile
}

// modelKey is everything Model reads: the experiment's benchmark, app
// server, mix and think time, and the write ratio.
type modelKey struct {
	benchmark, appServer, mix string
	writeRatioPct, thinkSec   float64
}

// get returns Model(e, writeRatioPct), building it on first use. Errors
// are not kept: every call that fails builds again and reports its own.
func (w *workloadModels) get(e *spec.Experiment, writeRatioPct float64) (*bench.Profile, error) {
	k := modelKey{e.Benchmark, e.AppServer, e.Mix, writeRatioPct, e.Workload.ThinkTimeSec}
	w.mu.Lock()
	defer w.mu.Unlock()
	if p, ok := w.m[k]; ok {
		return p, nil
	}
	p, err := Model(e, writeRatioPct)
	if err != nil {
		return nil, err
	}
	if w.m == nil {
		w.m = map[modelKey]*bench.Profile{}
	}
	w.m[k] = p
	return p, nil
}
