package experiment

import (
	"fmt"
	"math"

	"elba/internal/deploy"
	"elba/internal/fluid"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// runFluidTrial executes one trial with the aggregated user-class flow
// approximation instead of the per-session DES. The trial keeps the same
// phase structure (ramp-up, warm-up, measured run, cool-down), the same
// monitor sampling schedule, and the same result-assembly rules, so a
// fluid trial's stored output is shaped exactly like an exact one —
// only tagged with Engine "fluid". Output is fully deterministic: the
// solver draws no random numbers.
func runFluidTrial(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement, cfg TrialConfig) (*TrialOutcome, error) {
	if len(e.Faults) > 0 || len(cfg.FaultPlan) > 0 {
		return nil, fmt.Errorf("experiment: the fluid engine cannot emulate fault windows")
	}
	ts := cfg.TimeScale
	if ts <= 0 {
		ts = 1.0
	}
	model, err := cfg.model(e)
	if err != nil {
		return nil, err
	}

	warm := e.Trial.WarmupSec * ts
	run := e.Trial.RunSec * ts
	cool := e.Trial.CooldownSec * ts
	rampUp := warm / 2
	if rampUp > 10 {
		rampUp = 10
	}

	maxSessions := sessionCapacity(d, p)
	sessions, refused := cfg.Users, 0
	if maxSessions > 0 && sessions > maxSessions {
		refused = sessions - maxSessions
		sessions = maxSessions
	}

	// Expression hooks: nil for expression-free specs, which therefore
	// integrate the run period in one sweep exactly as before.
	hooks, err := newExprHooks(e, warm, run, ts, e.Monitor.IntervalSec*ts, maxSessions)
	if err != nil {
		return nil, err
	}

	fcfg := fluid.Config{
		Sessions:   sessions,
		Refused:    refused,
		ThinkSec:   model.ThinkTime(),
		TimeoutSec: e.Workload.TimeoutSec,
		RampUpSec:  rampUp,
	}
	for i, tier := range []string{"web", "app", "db"} {
		tspec, err := fluidTier(e, d, p, tier)
		if err != nil {
			return nil, err
		}
		switch i {
		case fluid.TierWeb:
			fcfg.Web = tspec
		case fluid.TierApp:
			fcfg.App = tspec
		case fluid.TierDB:
			fcfg.DB = tspec
		}
	}
	pi := model.Matrix().Stationary()
	for j, s := range model.Interactions() {
		fcfg.Classes = append(fcfg.Classes, fluid.Class{
			Name: s.Name, Weight: pi[j],
			Web: s.WebDemand, App: s.AppDemand, DB: s.DBDemand,
			Write: s.Write,
		})
	}
	solver, err := fluid.New(fcfg)
	if err != nil {
		return nil, err
	}
	if hooks != nil && len(hooks.policies) > 0 {
		hooks.actuator = fluidScaler{solver: solver}
	}

	// The kernel carries only the monitor's tick schedule; probes advance
	// the solver lazily to the kernel clock, so sampling sees the fluid
	// state at exactly the same instants the DES monitor would sample.
	k := sim.NewKernel(1)
	probes, hostOf := buildFluidProbes(e, d, p, solver, k, model)
	mon, err := monitor.New(k, monitor.Config{
		IntervalSec: e.Monitor.IntervalSec * ts,
		Metrics:     e.Monitor.Metrics,
		HorizonSec:  warm + run + cool,
	}, probes)
	if err != nil {
		return nil, err
	}

	mon.Start()
	k.Run(warm)
	solver.Advance(warm)
	runStart := k.Now()
	snapA := solver.Snapshot()
	if hooks != nil {
		hooks.runFluidWindows(k, solver, sessions)
	} else {
		k.Run(warm + run)
		solver.Advance(warm + run)
	}
	runEnd := k.Now()
	snapB := solver.Snapshot()
	k.Run(warm + run + cool)
	solver.Advance(warm + run + cool)
	mon.Stop()

	res := assembleFluidResult(e, d, solver, mon, hostOf, cfg, snapA, snapB, runStart, runEnd)
	res.DeployRetries = p.Retries
	res.DeploySeconds = p.DeploySec
	if hooks != nil {
		hooks.record(&res)
	}
	return &TrialOutcome{Result: res, Monitor: mon, RunWindow: [2]float64{runStart, runEnd}}, nil
}

// fluidTier converts one deployed tier to the fluid model's view: the
// allocated hardware plus the TBL-declared demands, with disk and network
// legs gated exactly like buildNTier's resource attachment.
func fluidTier(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement, tier string) (fluid.TierSpec, error) {
	td := e.Demands[tier]
	out := fluid.TierSpec{
		Name:     tier,
		CPUScale: td.CPUScale,
		DiskSec:  td.DiskSec,
		NetBytes: td.NetBytes,
	}
	for _, role := range d.Roles(tier) {
		node, ok := p.Node(role)
		if !ok {
			return fluid.TierSpec{}, fmt.Errorf("experiment: role %s has no allocated node", role)
		}
		ns := fluid.NodeSpec{Cores: node.Cores(), Speed: node.EffectiveSpeed()}
		if td.DiskSec > 0 {
			ns.DiskRate = node.EffectiveDiskSpeed()
			if ns.DiskRate <= 0 {
				ns.DiskRate = node.DiskSpeed()
			}
		}
		if td.NetBytes > 0 {
			ns.NetRate = node.NetBytesPerSec()
		}
		out.Nodes = append(out.Nodes, ns)
	}
	return out, nil
}

// buildFluidProbes wires monitor probes to the fluid solver's per-node
// views. Every closure advances the solver to the kernel clock first, so
// a sample reads the state at the sampling instant; rows for hosts
// without a modelled service (the client) carry memory only, as in the
// DES path.
func buildFluidProbes(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement,
	solver *fluid.Solver, k *sim.Kernel, model interface {
		MeanBytes() (float64, float64)
	}) ([]monitor.Probe, map[string]string) {

	reqBytes, replyBytes := model.MeanBytes()
	tierIndex := map[string]int{"web": fluid.TierWeb, "app": fluid.TierApp, "db": fluid.TierDB}
	hostOf := map[string]string{}
	var probes []monitor.Probe
	for _, a := range d.Assignments {
		node, ok := p.Node(a.Role)
		if !ok {
			continue
		}
		hostOf[a.Role] = node.Name()
		mp := memProfile[a.Tier]
		probe := monitor.Probe{
			Host:        node.Name(),
			Role:        a.Role,
			TotalMemMB:  float64(node.Pool().MemoryMB),
			BaseMemMB:   mp.base,
			MemPerJobMB: mp.perJob,
		}
		if ti, ok := tierIndex[a.Tier]; ok {
			sync := func() { solver.Advance(k.Now()) }
			probe.CPUBusyFn = func() float64 { sync(); return solver.NodeCPUBusy(ti) }
			probe.CPUServers = node.Cores()
			probe.JobsFn = func() float64 { sync(); return solver.NodeJobs(ti) }
			perReq := reqBytes + replyBytes
			switch a.Tier {
			case "db":
				perReq = 600 // query + row traffic, not page bodies
			case "app":
				perReq = replyBytes + 400
			}
			probe.NetBytes = func() float64 { sync(); return solver.NodeOps(ti) * perReq }
			if a.Tier == "db" {
				probe.DiskOps = func() float64 { sync(); return solver.NodeOps(ti) * 1.6 }
			}
			td := e.Demands[a.Tier]
			if td.DiskSec > 0 {
				probe.DiskBusyFn = func() float64 { sync(); return solver.NodeDiskBusy(ti) }
			}
			if td.NetBytes > 0 && node.NetBytesPerSec() > 0 {
				probe.NetBusyFn = func() float64 { sync(); return solver.NodeNetBusy(ti) }
			}
		}
		probes = append(probes, probe)
	}
	return probes, hostOf
}

// assembleFluidResult mirrors assembleResult: same key, same completion
// rules, same utilization aggregation — with the measured window's
// statistics coming from the solver instead of the driver.
func assembleFluidResult(e *spec.Experiment, d *mulini.Deployment, solver *fluid.Solver,
	mon *monitor.Monitor, hostOf map[string]string, cfg TrialConfig,
	snapA, snapB fluid.Snapshot, runStart, runEnd float64) store.Result {

	stats := solver.StatsBetween(snapA, snapB)
	dur := runEnd - runStart
	res := store.Result{
		Key: store.Key{
			Experiment:    e.Name,
			Topology:      d.Topology.String(),
			Users:         cfg.Users,
			WriteRatioPct: cfg.WriteRatioPct,
		},
		Engine:         cfg.Engine,
		Requests:       int64(math.Round(stats.Requests)),
		Errors:         int64(math.Round(stats.Errors)),
		RunSeconds:     dur,
		CollectedBytes: mon.CollectedBytes(),
		TierCPU:        map[string]float64{},
		HostCPU:        map[string]float64{},
	}
	if res.Requests > 0 {
		res.AvgRTms = stats.MeanRTms
		res.P50ms = stats.P50ms
		res.P90ms = stats.P90ms
		res.P99ms = stats.P99ms
		res.MaxRTms = stats.MaxRTms
		res.Throughput = float64(res.Requests) / dur
	}
	if len(stats.PerClass) > 0 {
		res.PerInteraction = make(map[string]float64, len(stats.PerClass))
		for _, c := range stats.PerClass {
			res.PerInteraction[c.Name] = c.MeanMS
		}
	}
	res.FaultProfile = cfg.FaultProfile

	// Only roles of modelled tiers carry utilization (the client host is
	// memory-only), matching the DES path's station-backed filter.
	modelled := map[string]bool{}
	for _, tier := range []string{"web", "app", "db"} {
		for _, role := range d.Roles(tier) {
			modelled[role] = true
		}
	}
	collectUtilization(&res, d, mon, hostOf,
		func(role string) bool { return modelled[role] && hostOf[role] != "" }, runStart, runEnd)

	total := res.Requests + res.Errors
	switch {
	case total == 0:
		res.Completed = false
		res.FailReason = "no requests completed during the run period"
	case res.ErrorRate() > FailureErrorRate:
		res.Completed = false
		res.FailReason = fmt.Sprintf("error rate %.1f%% exceeds %.0f%%",
			res.ErrorRate()*100, FailureErrorRate*100)
	default:
		res.Completed = true
	}
	return res
}
