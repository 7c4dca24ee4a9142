package experiment

import (
	"fmt"
	"math"

	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/fluid"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// fluidEngine integrates the aggregated user-class flow approximation
// instead of emulating sessions. Its kernel carries only the monitor's
// tick schedule; probes advance the solver lazily to the kernel clock, so
// sampling sees the fluid state at exactly the instants the DES monitor
// would sample. The solver draws no random numbers. Beyond the shared
// seam it keeps the snapshots bounding the run and its observation
// windows, and the admitted session count, capped at the deployment's
// session capacity.
type fluidEngine struct {
	k        *sim.Kernel
	e        *spec.Experiment
	solver   *fluid.Solver
	sessions int
	run      [2]fluid.Snapshot // the measured run's bounds
	prev     fluid.Snapshot    // the open observation window's start
}

// newFluidEngine builds the solver from the deployed tiers and the
// workload's stationary class mix. Sessions above the session capacity
// are refused, as the DES driver refuses them.
func newFluidEngine(pl trialPlan) (engine, error) {
	e, cfg := pl.e, pl.cfg
	if len(e.Faults) > 0 || len(cfg.FaultPlan) > 0 {
		return nil, fmt.Errorf("experiment: the fluid engine cannot emulate fault windows")
	}
	sessions, refused := cfg.Users, 0
	if pl.maxSessions > 0 && sessions > pl.maxSessions {
		refused = sessions - pl.maxSessions
		sessions = pl.maxSessions
	}
	fcfg := fluid.Config{
		Sessions:   sessions,
		Refused:    refused,
		ThinkSec:   pl.model.ThinkTime(),
		TimeoutSec: e.Workload.TimeoutSec,
		RampUpSec:  pl.rampUp,
	}
	for i, tier := range tierNames {
		tspec, err := fluidTier(e, pl.d, pl.p, tier)
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
	pi := pl.model.Matrix().Stationary()
	for j, s := range pl.model.Interactions() {
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
	return &fluidEngine{k: pl.k, e: e, solver: solver, sessions: sessions}, nil
}

// fluidTier converts one deployed tier to the fluid model's view: the
// allocated hardware plus the TBL-declared demands, with a disk and a
// network leg for each device the node contributes (nodeDevices), the
// devices newStation attaches.
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
		ns.DiskRate, ns.NetRate = nodeDevices(node, td)
		out.Nodes = append(out.Nodes, ns)
	}
	return out, nil
}

// counters wires the solver's per-node views. Every counter advances the
// solver to the kernel clock first, so a sample reads the state at the
// sampling instant.
func (fe *fluidEngine) counters(p monitor.Probe, ti int, node *cluster.Node) (monitor.Probe, func() float64) {
	s, k := fe.solver, fe.k
	sync := func() { s.Advance(k.Now()) }
	p.CPUBusy = func() float64 { sync(); return s.NodeCPUBusy(ti) }
	p.CPUServers = node.Cores()
	p.Jobs = func() float64 { sync(); return s.NodeJobs(ti) }
	disk, net := nodeDevices(node, fe.e.Demands[tierNames[ti]])
	if disk > 0 {
		p.DiskBusy = func() float64 { sync(); return s.NodeDiskBusy(ti) }
	}
	if net > 0 {
		p.NetBusy = func() float64 { sync(); return s.NodeNetBusy(ti) }
	}
	return p, func() float64 { sync(); return s.NodeOps(ti) }
}

// advance lets the monitor's kernel ticks land on schedule, then
// integrates to t.
func (fe *fluidEngine) advance(t float64) {
	fe.k.Run(t)
	fe.solver.Advance(t)
}

func (fe *fluidEngine) measure(on bool) {
	if !on {
		fe.run[1] = fe.solver.Snapshot()
		return
	}
	fe.run[0] = fe.solver.Snapshot()
	fe.prev = fe.run[0]
}

// observe reads the window from the solver's window statistics and
// cumulative per-node busy integrals. Nodes of a tier are
// interchangeable, so CPU divides by one node's cores and disk and
// network by one node's single queue.
func (fe *fluidEngine) observe() windowReading {
	cur := fe.solver.Snapshot()
	st := fe.solver.StatsBetween(fe.prev, cur)
	fe.prev = cur
	w := windowReading{now: cur.Time, goodput: st.Requests}
	if st.Requests > 1e-9 {
		w.served = true
		w.q = [3]float64{st.P50ms / 1000, st.P90ms / 1000, st.P99ms / 1000}
	}
	for ti := range w.busy {
		w.busy[ti] = [expr.NumResources]float64{
			expr.ResCPU:  fe.solver.NodeCPUBusy(ti),
			expr.ResDisk: fe.solver.NodeDiskBusy(ti),
			expr.ResNet:  fe.solver.NodeNetBusy(ti),
		}
		w.units[ti] = [expr.NumResources]float64{
			expr.ResCPU:  float64(fe.solver.NodeCores(ti)),
			expr.ResDisk: 1,
			expr.ResNet:  1,
		}
	}
	return w
}

func (fe *fluidEngine) retarget(n int) {
	if n != fe.sessions {
		fe.solver.SetSessions(n)
		fe.sessions = n
	}
}

func (fe *fluidEngine) replicas(ti int) int { return fe.solver.TierNodes(ti) }

// scale retargets the tier's node count; growth clones the tier's first
// node spec, as the DES clones the tier's first deployed node, so both
// engines scale onto identical hardware. Validation already bounds
// targets by the policy max, so no spare pool is needed.
func (fe *fluidEngine) scale(ti, target int) int {
	fe.solver.SetTierNodes(ti, target)
	return fe.solver.TierNodes(ti)
}

// inject is never called: newFluidEngine rejects fault windows.
func (fe *fluidEngine) inject(fault.Event, float64) {}

func (fe *fluidEngine) fill(res store.Result) store.Result {
	stats := fe.solver.StatsBetween(fe.run[0], fe.run[1])
	res.Requests = int64(math.Round(stats.Requests))
	res.Errors = int64(math.Round(stats.Errors))
	if res.Requests > 0 {
		res.AvgRTms = stats.MeanRTms
		res.P50ms = stats.P50ms
		res.P90ms = stats.P90ms
		res.P99ms = stats.P99ms
		res.MaxRTms = stats.MaxRTms
	}
	if len(stats.PerClass) > 0 {
		res.PerInteraction = make(map[string]float64, len(stats.PerClass))
		for _, c := range stats.PerClass {
			res.PerInteraction[c.Name] = c.MeanMS
		}
	}
	return res
}
