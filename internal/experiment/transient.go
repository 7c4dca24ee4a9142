package experiment

import (
	"fmt"

	"elba/internal/deploy"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
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
	// Errors counts failed requests in the phase.
	Errors int64
	// AppCPU and DBCPU are the tiers' mean utilization percent.
	AppCPU, DBCPU float64
}

// runTransientTrial runs a transient schedule on placement p of d (see
// RunTransientAt). root is the runner's root seed, mixed into the derived
// trial seed (0 = historical derivation).
func runTransientTrial(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement,
	schedule []PopulationPhase, timeScale float64, root uint64) ([]PhaseResult, error) {

	if len(schedule) == 0 {
		return nil, fmt.Errorf("experiment: transient trial needs at least one phase")
	}
	for i, ph := range schedule {
		if ph.Users < 0 || ph.DurationSec <= 0 {
			return nil, fmt.Errorf("experiment: phase %d needs non-negative users and positive duration", i)
		}
	}
	if timeScale <= 0 {
		timeScale = 1.0
	}
	model, err := Model(e, e.Workload.WriteRatioPct.Lo)
	if err != nil {
		return nil, err
	}
	seed := deriveSeed(e.Seed, d.Topology.String(), schedule[0].Users, e.Workload.WriteRatioPct.Lo)
	if root != 0 {
		seed = mixRootSeed(seed, root, e.Name)
	}
	k := sim.NewKernel(seed)
	defer k.Release()
	nt, stationOf, err := buildNTier(k, e, d, p)
	if err != nil {
		return nil, err
	}
	driver := sim.NewDriver(k, nt, model, sim.DriverConfig{
		Users:       schedule[0].Users,
		Timeout:     e.Workload.TimeoutSec,
		RampUp:      5 * timeScale,
		MaxSessions: sessionCapacity(d, p),
	}, seed^0x7ea)

	// Fault windows apply to transient trials too. There is no warm-up
	// period here — the first phase measures its own transient — so fault
	// times are relative to the schedule's start, and when-guards are not
	// consulted.
	faults, err := specFaults(e, d, stationOf)
	if err != nil {
		return nil, err
	}
	for _, ev := range faults {
		scheduleFault(k, driver, stationOf, ev, 0, timeScale)
	}

	driver.Start()

	appBusy := func() float64 {
		var b float64
		for _, s := range nt.App.Stations() {
			b += s.BusyTime()
		}
		return b
	}
	dbBusy := func() float64 {
		var b float64
		for _, s := range nt.DB.Replicas() {
			b += s.BusyTime()
		}
		return b
	}
	appServers, dbServers := 0, 0
	for _, s := range nt.App.Stations() {
		appServers += s.Servers()
	}
	for _, s := range nt.DB.Replicas() {
		dbServers += s.Servers()
	}

	var out []PhaseResult
	for i, ph := range schedule {
		if i > 0 {
			delta := ph.Users - schedule[i-1].Users
			switch {
			case delta > 0:
				driver.AddUsers(delta, 5*timeScale)
			case delta < 0:
				driver.RemoveUsers(-delta)
			}
		}
		startApp, startDB := appBusy(), dbBusy()
		driver.BeginMeasurement()
		start := k.Now()
		dur := ph.DurationSec * timeScale
		k.Run(start + dur)
		driver.EndMeasurement()

		rts := driver.ResponseTimes()
		pr := PhaseResult{
			Phase:  ph,
			Errors: driver.Errors(),
			AppCPU: (appBusy() - startApp) / (dur * float64(appServers)) * 100,
			DBCPU:  (dbBusy() - startDB) / (dur * float64(dbServers)) * 100,
		}
		if rts.Count() > 0 {
			pr.AvgRTms = rts.Mean() * 1000
			pr.P90ms = rts.Percentile(90) * 1000
			pr.Throughput = float64(rts.Count()) / dur
		}
		out = append(out, pr)
	}
	return out, nil
}

// RunTransientAt deploys a topology, drives it through a time-varying
// population schedule — the "workload evolves" situation the paper's
// introduction motivates — tears down, and reports per-phase statistics.
// Unlike the steady-state trial protocol, every phase is measured (the
// first phase doubles as its own warm-up), so early phases show transient
// effects by design.
func (r *Runner) RunTransientAt(e *spec.Experiment, topo spec.Topology, schedule []PopulationPhase) ([]PhaseResult, error) {
	var out []PhaseResult
	err := r.withDeployment(e, topo, "", func(dep *deployed) error {
		var err error
		out, err = runTransientTrial(e, dep.d, dep.placement, schedule, r.TimeScale, r.Seed)
		return err
	})
	return out, err
}
