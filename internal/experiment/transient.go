package experiment

import (
	"fmt"

	"elba/internal/expr"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// PopulationPhase is one step of a transient workload schedule.
type PopulationPhase struct {
	// Users is the population held during this phase.
	Users int
	// DurationSec is the phase length in (unscaled) seconds.
	DurationSec float64
}

// PhaseResult is the measured behaviour of one schedule phase.
type PhaseResult struct {
	Phase PopulationPhase
	// AvgRTms and P90ms summarize successful requests in the phase.
	AvgRTms float64
	P90ms   float64
	// Throughput is successful requests/second during the phase.
	Throughput float64
	// AppCPU is the app tier's mean utilization percent.
	AppCPU float64
}

// RunTransientAt deploys a topology, drives it through a time-varying
// population schedule — the "workload evolves" situation the paper's
// introduction motivates — tears down, and reports per-phase statistics.
// The schedule runs on the engine and fault plan the runner resolves for
// a trial at the first phase's population. Unlike the steady-state trial
// protocol, every phase is measured (there is no warm-up: the first phase
// doubles as its own, and fault times count from the schedule's start),
// so early phases show transient effects by design.
func (r *Runner) RunTransientAt(e *spec.Experiment, topo spec.Topology, schedule []PopulationPhase) ([]PhaseResult, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("experiment: transient trial needs at least one phase")
	}
	for i, ph := range schedule {
		if ph.Users < 0 || ph.DurationSec <= 0 {
			return nil, fmt.Errorf("experiment: phase %d needs non-negative users and positive duration", i)
		}
	}
	var out []PhaseResult
	err := r.withDeployment(e, topo, "", func(dep *deployed) error {
		var err error
		out, err = runTransientTrial(dep, r.trialConfig(dep, schedule[0].Users, e.Workload.WriteRatioPct.Lo), schedule)
		return err
	})
	return out, err
}

// runTransientTrial runs schedule on dep with the set-up RunTrial
// shares. Each phase retargets the population at its start (users
// arrive at once, as a users expression's do), opens the measurement,
// and reads the engine's window at both ends: request statistics from
// the engine's fill, utilization from the busy integrals.
func runTransientTrial(dep *deployed, cfg TrialConfig, schedule []PopulationPhase) ([]PhaseResult, error) {
	pl, err := planTrial(dep.e, dep.d, dep.placement, cfg)
	if err != nil {
		return nil, err
	}
	pl.rampUp = 5 * pl.ts
	k := sim.NewKernel(pl.seed)
	defer k.Release()
	eng, err := pl.newEngine(k)
	if err != nil {
		return nil, err
	}
	out := make([]PhaseResult, len(schedule))
	for i, ph := range schedule {
		if i > 0 {
			eng.retarget(ph.Users)
		}
		eng.measure(true)
		start := eng.observe()
		dur := ph.DurationSec * pl.ts
		eng.advance(start.now + dur)
		end := eng.observe()
		eng.measure(false)
		res := eng.fill(store.Result{})
		busy := end.busy[expr.TierApp][expr.ResCPU] - start.busy[expr.TierApp][expr.ResCPU]
		out[i] = PhaseResult{Phase: ph, AppCPU: busy / (dur * end.units[expr.TierApp][expr.ResCPU]) * 100}
		if res.Requests > 0 {
			out[i].AvgRTms, out[i].P90ms = res.AvgRTms, res.P90ms
			out[i].Throughput = float64(res.Requests) / dur
		}
	}
	return out, nil
}
