package experiment

import (
	"fmt"
	"sort"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/metrics"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
	"elba/internal/trace"
)

// desEngine is the exact discrete-event engine: one Markov emulator per
// user session driving a queueing network built from the deployed nodes.
// Beyond the shared seam it alone has accounting reset at the end of
// warm-up, fault windows, request traces, response-time sketches and the
// live RT observer.
type desEngine struct {
	k         *sim.Kernel
	e         *spec.Experiment
	nt        *sim.NTier
	stationOf map[string]*sim.Station
	driver    *sim.Driver
	users     int // the population the driver is steering toward

	tracer    *trace.Collector
	exemplars int
	sketch    *metrics.TDigest

	seen int       // successes already folded into earlier windows
	rts  []float64 // window scratch, reused across windows

	// Autoscaling. Scale-out allocates nodes from a private per-trial
	// spare pool — a cluster materialized from the tier's own deployed
	// hardware description, so an added station is an exact clone of the
	// tier's first node — and joins it to the tier's balancer, which
	// rebalances deterministically. Scale-in retires stations LIFO; a
	// station that came from the spare pool hands its node back, so an
	// oscillating policy re-allocates the same hardware in the same order
	// every run.
	spares [expr.NumTiers]*cluster.Cluster
	nodeOf map[*sim.Station]*cluster.Node
	serial [expr.NumTiers]int
}

// newDESEngine builds the queueing network and the client driver, taps
// the response-time stream, schedules the clock-driven faults, sizes the
// spare pools and starts the sessions.
func newDESEngine(pl trialPlan) (engine, error) {
	e, d, cfg, k := pl.e, pl.d, pl.cfg, pl.k
	nt, stationOf, err := buildNTier(k, e, d, pl.p)
	if err != nil {
		return nil, err
	}
	de := &desEngine{k: k, e: e, nt: nt, stationOf: stationOf, users: cfg.Users}
	de.driver = sim.NewDriver(k, nt, pl.model, sim.DriverConfig{
		Users:       cfg.Users,
		Timeout:     e.Workload.TimeoutSec,
		RampUp:      pl.rampUp,
		MaxSessions: pl.maxSessions,
	}, pl.seed^0x5eed)

	// Request-level tracing: one single-owner collector per trial, seeded
	// from the trial seed under the "trace" domain, so the traced subset is
	// a pure function of the trial coordinates — identical for any worker
	// count, and absent entirely when the rate is zero.
	if cfg.TraceRate > 0 {
		de.tracer = trace.NewCollector(trace.SeedFor(pl.seed), cfg.TraceRate)
		de.exemplars = cfg.TraceExemplars
		de.driver.SetTracer(de.tracer)
	}

	// Response-time tap: a per-trial sketch (milliseconds, to match the
	// stored percentile fields) and/or the caller's live observer. The tap
	// sees exactly the measurement stream in completion order, which is a
	// pure function of the trial seed — so the sketch is byte-reproducible
	// for any worker count.
	if cfg.SketchRT || cfg.RTObserver != nil {
		var obs metrics.MultiObserver
		if cfg.SketchRT {
			sk := metrics.NewTDigest(metrics.DefaultTDigestCompression)
			de.sketch = sk
			obs = append(obs, metrics.ObserverFunc(func(rt float64) { sk.Observe(rt * 1000) }))
		}
		if cfg.RTObserver != nil {
			obs = append(obs, cfg.RTObserver)
		}
		if len(obs) == 1 {
			de.driver.SetRTObserver(obs[0])
		} else {
			de.driver.SetRTObserver(obs)
		}
	}

	// Schedule fault injection: outages are specified relative to the run
	// period and scale with the trial, like everything else. Faults with a
	// when-guard are armed by the observation windows instead of firing
	// on the clock.
	faults, err := specFaults(e, d, stationOf)
	if err != nil {
		return nil, err
	}
	for i, ev := range faults {
		if e.Faults[i].WhenExpr == "" {
			scheduleFault(k, de.driver, stationOf, ev, pl.warm, pl.ts)
		}
	}
	// Profile-derived fault plan: same mechanism, derived coordinates.
	// Roles absent from this topology are skipped silently — the plan is
	// drawn from the deployment's own role list, so that only happens for
	// hand-built configs.
	for _, ev := range cfg.FaultPlan {
		scheduleFault(k, de.driver, stationOf, ev, pl.warm, pl.ts)
	}

	if err := de.sizeSpares(d, pl.p); err != nil {
		return nil, err
	}
	de.driver.Start()
	return de, nil
}

// sizeSpares builds the spare pool of every tier a scale-out policy can
// grow, sized by the policies' max bounds — which is why validation
// requires a max on every scale-out policy. Pools derive purely from the
// deployed placement and the spec's policies, so actuation is a
// deterministic function of the trial coordinates.
func (de *desEngine) sizeSpares(d *mulini.Deployment, p *deploy.Placement) error {
	if len(de.e.Policies) == 0 {
		return nil
	}
	de.nodeOf = map[*sim.Station]*cluster.Node{}
	for ti, name := range tierNames {
		head := 0
		for _, pol := range de.e.Policies {
			if pol.Tier != name || pol.In {
				continue
			}
			if h := pol.Max - de.replicas(ti); h > head {
				head = h
			}
		}
		if head <= 0 {
			continue
		}
		roles := d.Roles(name)
		if len(roles) == 0 {
			return fmt.Errorf("experiment: policy scales tier %s, absent from topology %s", name, d.Topology)
		}
		node, ok := p.Node(roles[0])
		if !ok {
			return fmt.Errorf("experiment: role %s has no allocated node", roles[0])
		}
		pool := node.Pool()
		pool.Name = "scale-" + name
		pool.NodeType = "scale-" + name
		pool.NodeCount = head
		cl, err := cluster.New(cim.Platform{Name: "autoscale", Pools: []cim.NodePool{pool}})
		if err != nil {
			return err
		}
		de.spares[ti] = cl
	}
	return nil
}

func (de *desEngine) counters(p monitor.Probe, _ int, _ *cluster.Node) (monitor.Probe, func() float64) {
	st := de.stationOf[p.Role]
	p.Station = st
	p.Disk = st.Disk()
	p.NetRes = st.Net()
	return p, func() float64 { return float64(st.Completed()) }
}

func (de *desEngine) advance(t float64) { de.k.Run(t) }

// measure resets the stations' accounting when the run opens, so the
// run's busy integrals start at zero.
func (de *desEngine) measure(on bool) {
	if !on {
		de.driver.EndMeasurement()
		return
	}
	de.nt.ResetAccounting()
	de.driver.BeginMeasurement()
}

// stations reports a tier's active and retired station lists.
func (de *desEngine) stations(ti int) (active, retired []*sim.Station) {
	switch ti {
	case expr.TierWeb:
		return de.nt.Web.Stations(), de.nt.Web.Retired()
	case expr.TierApp:
		return de.nt.App.Stations(), de.nt.App.Retired()
	default:
		return de.nt.DB.Replicas(), de.nt.DB.Retired()
	}
}

// observe reads the window from the DES's own measured signals: the tail
// of the driver's success sample for goodput and quantiles, and the
// stations' busy-time integrals — the counters the monitor samples.
// Station lists are re-read from the live tiers, so a policy's
// replica-set change is visible to the very next window. Retired
// stations keep contributing to the busy numerator (their drain work
// happened, and dropping them would step the sums backwards); only active
// stations count toward capacity.
func (de *desEngine) observe() windowReading {
	w := windowReading{now: de.k.Now()}
	// The window's successes are still in completion order: nothing sorts
	// the sample before the trial ends.
	win := de.driver.ResponseTimes().Since(de.seen)
	de.seen += len(win)
	de.rts = append(de.rts[:0], win...)
	w.goodput = float64(len(de.rts))
	if len(de.rts) > 0 {
		sort.Float64s(de.rts)
		w.served = true
		w.q = [3]float64{
			metrics.QuantileSorted(de.rts, 0.50),
			metrics.QuantileSorted(de.rts, 0.90),
			metrics.QuantileSorted(de.rts, 0.99),
		}
	}
	for ti := range w.busy {
		active, retired := de.stations(ti)
		busy, units := &w.busy[ti], &w.units[ti]
		for _, st := range active {
			busy[expr.ResCPU] += st.BusyTime()
			units[expr.ResCPU] += float64(st.Servers())
			if d := st.Disk(); d != nil {
				busy[expr.ResDisk] += d.BusyTime()
				units[expr.ResDisk]++
			}
			if n := st.Net(); n != nil {
				busy[expr.ResNet] += n.BusyTime()
				units[expr.ResNet]++
			}
		}
		for _, st := range retired {
			busy[expr.ResCPU] += st.BusyTime()
			if d := st.Disk(); d != nil {
				busy[expr.ResDisk] += d.BusyTime()
			}
			if n := st.Net(); n != nil {
				busy[expr.ResNet] += n.BusyTime()
			}
		}
	}
	return w
}

// retarget adds sessions at the boundary or retires the newest ones,
// which leave at their request's completion.
func (de *desEngine) retarget(n int) {
	switch {
	case n > de.users:
		de.driver.AddUsers(n-de.users, 0)
	case n < de.users:
		de.driver.RemoveUsers(de.users - n)
	}
	de.users = n
}

func (de *desEngine) replicas(ti int) int {
	switch ti {
	case expr.TierWeb:
		return de.nt.Web.Size()
	case expr.TierApp:
		return de.nt.App.Size()
	default:
		return de.nt.DB.Size()
	}
}

// scale moves a tier's active count toward target one station at a time.
func (de *desEngine) scale(ti, target int) int {
	for de.replicas(ti) < target {
		if !de.addOne(ti) {
			break
		}
	}
	for de.replicas(ti) > target {
		if !de.removeOne(ti) {
			break
		}
	}
	return de.replicas(ti)
}

// addOne allocates a spare node and attaches a station built exactly the
// way buildNTier builds the tier's original stations.
func (de *desEngine) addOne(ti int) bool {
	cl := de.spares[ti]
	if cl == nil {
		return false
	}
	name := tierNames[ti]
	role := fmt.Sprintf("%s-scale-%d", name, de.serial[ti]+1)
	node, err := cl.Allocate("", role)
	if err != nil {
		return false
	}
	de.serial[ti]++
	st := newStation(de.k, role, node, de.e.Demands[name])
	de.nodeOf[st] = node
	switch ti {
	case expr.TierWeb:
		de.nt.Web.AddStation(st)
	case expr.TierApp:
		de.nt.App.AddStation(st)
	default:
		de.nt.DB.AddReplica(st)
	}
	return true
}

// removeOne retires the tier's most recently added station. The retired
// station drains its in-flight work; if it was backed by a spare-pool
// node the node is released for the next scale-out to re-allocate.
// Originally deployed stations have no node to return — their hardware
// belongs to the runner's cluster for the whole trial.
func (de *desEngine) removeOne(ti int) bool {
	var st *sim.Station
	switch ti {
	case expr.TierWeb:
		st = de.nt.Web.RemoveStation()
	case expr.TierApp:
		st = de.nt.App.RemoveStation()
	default:
		st = de.nt.DB.RemoveReplica()
	}
	if st == nil {
		return false
	}
	if node, ok := de.nodeOf[st]; ok {
		de.spares[ti].Release(node)
		delete(de.nodeOf, st)
	}
	return true
}

func (de *desEngine) inject(ev fault.Event, dur float64) {
	armFault(de.k, de.driver, de.stationOf, ev, 0, dur)
}

func (de *desEngine) fill(res store.Result) store.Result {
	rts := de.driver.ResponseTimes()
	res.Requests = int64(rts.Count())
	res.Errors = de.driver.Errors()
	if rts.Count() > 0 {
		res.AvgRTms = rts.Mean() * 1000
		res.P50ms = rts.Percentile(50) * 1000
		res.P90ms = rts.Percentile(90) * 1000
		res.P99ms = rts.Percentile(99) * 1000
		res.MaxRTms = rts.Max() * 1000
	}
	if per := de.driver.PerInteraction(); len(per) > 0 {
		res.PerInteraction = make(map[string]float64, len(per))
		for name, s := range per {
			res.PerInteraction[name] = s.Mean() * 1000
		}
	}
	res.InjectedErrors = de.driver.InjectedErrors()
	if de.sketch != nil && de.sketch.Count() > 0 {
		de.sketch.Compress()
		res.RTSketch = de.sketch
	}
	if de.tracer != nil {
		res.Trace = trace.BuildReport(de.tracer, de.exemplars)
	}
	return res
}

// specFaults converts the spec's fault declarations to events, in
// declaration order, checking that every station fault names a deployed
// role.
func specFaults(e *spec.Experiment, d *mulini.Deployment, stationOf map[string]*sim.Station) ([]fault.Event, error) {
	var out []fault.Event
	for _, f := range e.Faults {
		ev, err := specFaultEvent(f)
		if err != nil {
			return nil, err
		}
		if _, ok := stationOf[f.Role]; !ok && ev.Kind != fault.ErrorBurst {
			return nil, fmt.Errorf("experiment: fault names role %s, absent from topology %s",
				f.Role, d.Topology)
		}
		out = append(out, ev)
	}
	return out, nil
}

// scheduleFault arms one fault window on the trial's kernel. Times are
// relative to the run period's start and scale with the trial; roles not
// present in the topology are ignored. It must be called before the
// kernel runs (delays are measured from time zero).
func scheduleFault(k *sim.Kernel, driver *sim.Driver, stationOf map[string]*sim.Station,
	ev fault.Event, warm, ts float64) {
	armFault(k, driver, stationOf, ev, warm+ev.AtSec*ts, ev.DurationSec*ts)
}

// armFault schedules one fault's start and recovery, `at` kernel seconds
// from now for `dur` kernel seconds. When-guarded faults fire through
// this path at a window boundary with at = 0.
func armFault(k *sim.Kernel, driver *sim.Driver, stationOf map[string]*sim.Station,
	ev fault.Event, at, dur float64) {

	end := at + dur
	switch ev.Kind {
	case fault.Crash:
		st, ok := stationOf[ev.Role]
		if !ok {
			return
		}
		k.Schedule(at, st.Fail)
		k.Schedule(end, st.Recover)
	case fault.Slowdown, fault.Stall:
		st, ok := stationOf[ev.Role]
		if !ok {
			return
		}
		f := ev.Factor
		k.Schedule(at, func() { st.SetDegradation(f) })
		k.Schedule(end, func() { st.SetDegradation(1) })
	case fault.ErrorBurst:
		f := ev.Factor
		k.Schedule(at, func() { driver.SetErrorRate(f) })
		k.Schedule(end, func() { driver.SetErrorRate(0) })
	}
}

// buildNTier constructs the queueing network from the deployed placement,
// one station per role of each tier, and returns the role→station map
// that probes and faults address stations by.
func buildNTier(k *sim.Kernel, e *spec.Experiment, d *mulini.Deployment,
	p *deploy.Placement) (*sim.NTier, map[string]*sim.Station, error) {

	stationOf := map[string]*sim.Station{}
	var tiers [expr.NumTiers][]*sim.Station
	for _, a := range d.Assignments {
		ti, ok := expr.TierIndex(a.Tier)
		if !ok {
			continue
		}
		node, ok := p.Node(a.Role)
		if !ok {
			return nil, nil, fmt.Errorf("experiment: role %s has no allocated node", a.Role)
		}
		st := newStation(k, a.Role, node, e.Demands[a.Tier])
		stationOf[a.Role] = st
		tiers[ti] = append(tiers[ti], st)
	}
	nt := &sim.NTier{
		Web: sim.NewTier(k, "web", sim.RoundRobin, tiers[expr.TierWeb]),
		App: sim.NewTier(k, "app", sim.RoundRobin, tiers[expr.TierApp]),
		DB:  sim.NewRAIDb(k, sim.RoundRobin, tiers[expr.TierDB]),
	}
	conv := func(d spec.ResourceDemand) sim.TierDemand {
		return sim.TierDemand{CPUScale: d.CPUScale, DiskSec: d.DiskSec, NetBytes: d.NetBytes}
	}
	nt.Demands = [3]sim.TierDemand{
		conv(e.Demands["web"]), conv(e.Demands["app"]), conv(e.Demands["db"]),
	}
	nt.DB.Demand = nt.Demands[2]
	return nt, stationOf, nil
}

// newStation builds role's station on node: the node's cores and speed,
// plus per-node disk and network queues sized from its Table-2 capacities
// when the tier declares those demands. Without demands the station is
// the historical CPU-only one.
func newStation(k *sim.Kernel, role string, node *cluster.Node, td spec.ResourceDemand) *sim.Station {
	st := sim.NewStation(k, sim.StationConfig{
		Name:    role,
		Servers: node.Cores(),
		Speed:   node.EffectiveSpeed(),
	})
	if td.DiskSec > 0 {
		ds := node.EffectiveDiskSpeed()
		if ds <= 0 {
			ds = node.DiskSpeed()
		}
		st.AttachDisk(sim.NewResource(k, role+"/disk", ds))
	}
	if td.NetBytes > 0 {
		if bps := node.NetBytesPerSec(); bps > 0 {
			st.AttachNet(sim.NewResource(k, role+"/net", bps))
		}
	}
	return st
}
