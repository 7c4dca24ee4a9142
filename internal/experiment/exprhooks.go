package experiment

import (
	"fmt"
	"math"
	"sort"

	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/fluid"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// maxDynamicUsers bounds what a users expression can ask for in one trial,
// so a runaway expression cannot allocate millions of DES sessions.
const maxDynamicUsers = 1_000_000

// exprHooks carries an experiment's compiled expression clauses through
// one trial: the time-varying population, the SLO assert, and the fault
// when-guards. Everything is evaluated at the observation cadence — the
// monitor interval — over the measured run period only, reading the same
// windowed signals the paper's analysis pipeline reads, so the hooks are
// a pure function of (window observations, t) and preserve determinism.
type exprHooks struct {
	users    *expr.Program
	assert   *expr.Program
	guards   []*whenGuard
	policies []*policyState

	warm, run float64 // scaled phase bounds
	windowSec float64 // scaled observation window width
	ts        float64
	capUsers  int // session-capacity clamp for dynamic populations (0 = none)

	// actuator applies policy firings to the running engine. Set by the
	// trial before the first window when the spec declares policies.
	actuator scaleActuator

	sloWindows    int
	sloViolations int
	sloViolatedAt []float64 // protocol seconds, window start
	scaleEvents   []store.ScaleEvent
}

// policyState is one autoscaling policy's compiled predicate plus its
// cooldown latch. The latch advances only on an actual firing: a window
// whose predicate holds but whose target is already reached (at the max,
// at the floor, or spare pool exhausted) does not consume the cooldown.
type policyState struct {
	pol  spec.Policy
	prog *expr.Program
	tier int
	last float64 // protocol seconds of the last firing; -inf = never
}

// whenGuard is one conditional fault trigger. The fault arms at its
// declared time but fires only at the first window boundary at or past it
// whose predicate has held in an observed window (the predicate latches:
// a condition observed before the arm time still triggers at arm time's
// next boundary).
type whenGuard struct {
	ev    fault.Event
	prog  *expr.Program
	armAt float64 // scaled absolute sim time
	held  bool
	fired bool
}

// newExprHooks compiles the experiment's expression clauses once per
// trial. It returns nil when the spec carries no expressions, which is
// what keeps expression-free trials on the exact historical event stream.
func newExprHooks(e *spec.Experiment, warm, run, ts, windowSec float64, capUsers int) (*exprHooks, error) {
	h := &exprHooks{warm: warm, run: run, ts: ts, windowSec: windowSec, capUsers: capUsers}
	if h.windowSec <= 0 {
		h.windowSec = run
	}
	var err error
	if e.Workload.UsersExpr != "" {
		if h.users, err = expr.Compile(e.Workload.UsersExpr); err != nil {
			return nil, fmt.Errorf("experiment: users expression: %v", err)
		}
	}
	if e.SLO.AssertExpr != "" {
		if h.assert, err = expr.Compile(e.SLO.AssertExpr); err != nil {
			return nil, fmt.Errorf("experiment: slo assert: %v", err)
		}
	}
	for _, f := range e.Faults {
		if f.WhenExpr == "" {
			continue
		}
		prog, err := expr.Compile(f.WhenExpr)
		if err != nil {
			return nil, fmt.Errorf("experiment: fault when-guard: %v", err)
		}
		ev, err := specFaultEvent(f)
		if err != nil {
			return nil, err
		}
		h.guards = append(h.guards, &whenGuard{ev: ev, prog: prog, armAt: warm + ev.AtSec*ts})
	}
	for _, pol := range e.Policies {
		prog, err := expr.Compile(pol.WhenExpr)
		if err != nil {
			return nil, fmt.Errorf("experiment: policy predicate: %v", err)
		}
		ti, ok := expr.TierIndex(pol.Tier)
		if !ok {
			return nil, fmt.Errorf("experiment: policy names unknown tier %q", pol.Tier)
		}
		h.policies = append(h.policies, &policyState{
			pol: pol, prog: prog, tier: ti, last: math.Inf(-1),
		})
	}
	if h.users == nil && h.assert == nil && len(h.guards) == 0 && len(h.policies) == 0 {
		return nil, nil
	}
	return h, nil
}

// applyPolicies evaluates the autoscaling policies against the window
// that just closed, in declaration order. A policy fires when its
// predicate holds, its cooldown has elapsed, and its bound leaves room
// to move; firing updates env.Replicas so later policies at the same
// boundary (and nothing else — the window's other signals are already
// observed) see the new count. Times are protocol seconds, so cooldowns
// are time-scale–invariant like every other spec duration.
func (h *exprHooks) applyPolicies(env *expr.Env) {
	if h.actuator == nil {
		return
	}
	for _, ps := range h.policies {
		if env.T-ps.last < ps.pol.CooldownSec-1e-9 {
			continue
		}
		if !ps.prog.EvalBool(env) {
			continue
		}
		cur := h.actuator.Replicas(ps.tier)
		target := cur
		if ps.pol.In {
			if target = cur - ps.pol.Delta; target < ps.pol.Min {
				target = ps.pol.Min
			}
		} else {
			if target = cur + ps.pol.Delta; target > ps.pol.Max {
				target = ps.pol.Max
			}
		}
		if target == cur {
			continue
		}
		got := h.actuator.Scale(ps.tier, target)
		if got == cur {
			continue
		}
		ps.last = env.T
		h.scaleEvents = append(h.scaleEvents, store.ScaleEvent{
			TSec: env.T, Tier: ps.pol.Tier, From: cur, To: got,
		})
		env.Replicas[ps.tier] = float64(got)
	}
}

// initialUsers evaluates the workload's users expression at the start of
// the run period (t = 0, no observations yet) — the population a trial of
// a dynamic-workload spec starts with, and the spec's grid coordinate.
// capUsers is the deployment's session capacity (0 = unknown): the start
// population honours the same clamp every mid-run retarget applies, so a
// dynamic trial cannot begin above the cap AddUsers documents as the
// caller's job to respect.
func initialUsers(e *spec.Experiment, capUsers int) (int, error) {
	prog, err := expr.Compile(e.Workload.UsersExpr)
	if err != nil {
		return 0, fmt.Errorf("experiment: users expression: %v", err)
	}
	return clampUsers(prog.Eval(&expr.Env{}), capUsers), nil
}

// clampUsers rounds an evaluated population into [1, maxDynamicUsers],
// further capped by the deployment's session capacity when known.
func clampUsers(v float64, capUsers int) int {
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	if n > maxDynamicUsers {
		n = maxDynamicUsers
	}
	if capUsers > 0 && n > capUsers {
		n = capUsers
	}
	return n
}

// observeSLO folds one window's verdict into the trial's SLO account.
// tStart is the window's start in protocol seconds from run start.
func (h *exprHooks) observeSLO(env *expr.Env, tStart float64) {
	if h.assert == nil {
		return
	}
	h.sloWindows++
	if !h.assert.EvalBool(env) {
		h.sloViolations++
		h.sloViolatedAt = append(h.sloViolatedAt, tStart)
	}
}

// shouldFire updates one guard with a window observation and reports
// whether its fault starts at this boundary.
func (g *whenGuard) shouldFire(env *expr.Env, now float64) bool {
	if g.fired {
		return false
	}
	if g.prog.EvalBool(env) {
		g.held = true
	}
	if g.held && now+1e-9 >= g.armAt {
		g.fired = true
		return true
	}
	return false
}

// record writes the trial's SLO account and scaling timeline into the
// stored result. All fields are omitempty, so results of assert-free,
// policy-free specs stay byte-identical to historical output.
func (h *exprHooks) record(res *store.Result) {
	if h.assert != nil {
		res.SLOAssert = h.assert.Source()
		res.SLOWindows = h.sloWindows
		res.SLOViolations = h.sloViolations
		res.SLOViolatedAt = h.sloViolatedAt
	}
	res.ScaleEvents = h.scaleEvents
}

// --- DES side ---------------------------------------------------------

// desObserver builds per-window expression environments from the DES's
// own measured signals: the driver's success sample for throughput and
// response-time quantiles, and the stations' busy-time integrals for
// utilization — the same counters the monitor samples. Station lists are
// re-read from the live tiers every window, so an autoscaling policy's
// replica-set changes are visible to the very next observation.
type desObserver struct {
	driver   *sim.Driver
	nt       *sim.NTier
	prevIdx  int // successes already folded into earlier windows
	prevBusy [expr.NumTiers][expr.NumResources]float64
	prevTime float64
	rts      []float64  // scratch, reused across windows
	lastQ    [3]float64 // last non-empty window's p50/p90/p99
}

// stations reports a tier's active and retired station lists. Retired
// stations keep contributing to the cumulative busy numerator (their
// drain work happened, and dropping them would step the sums backwards);
// only active stations count toward the capacity denominator.
func (o *desObserver) stations(ti int) (active, retired []*sim.Station) {
	switch ti {
	case expr.TierWeb:
		return o.nt.Web.Stations(), o.nt.Web.Retired()
	case expr.TierApp:
		return o.nt.App.Stations(), o.nt.App.Retired()
	default:
		return o.nt.DB.Replicas(), o.nt.DB.Retired()
	}
}

// observe closes the window [prevTime, now] and returns its environment.
func (o *desObserver) observe(now, warm, ts float64) expr.Env {
	dt := now - o.prevTime
	env := expr.Env{T: (now - warm) / ts}
	// The window's successes are the tail of the driver's success sample,
	// still in completion order: nothing sorts it before the trial ends.
	win := o.driver.ResponseTimes().Since(o.prevIdx)
	o.prevIdx += len(win)
	o.rts = append(o.rts[:0], win...)
	if dt > 0 {
		// x() is goodput: successful, in-deadline completions per second.
		// Errored and timed-out requests burn capacity but deliver nothing,
		// so an SLO on x() sees an error burst as the throughput loss it is.
		env.X = float64(len(o.rts)) / dt
	}
	if len(o.rts) == 0 {
		// An empty window is a stall, not perfection: carry the last
		// non-empty window's quantiles forward so a latency assert keeps
		// judging the last observed behaviour instead of trivially passing
		// on zeros. Before first traffic the carried values are still zero,
		// preserving historical warm-start behaviour.
		env.P50, env.P90, env.P99 = o.lastQ[0], o.lastQ[1], o.lastQ[2]
	} else {
		sort.Float64s(o.rts)
		env.P50 = quantileSorted(o.rts, 0.50)
		env.P90 = quantileSorted(o.rts, 0.90)
		env.P99 = quantileSorted(o.rts, 0.99)
		o.lastQ = [3]float64{env.P50, env.P90, env.P99}
	}
	for ti := 0; ti < expr.NumTiers; ti++ {
		active, retired := o.stations(ti)
		var busy [expr.NumResources]float64
		var servers, disks, nets float64
		for _, st := range active {
			busy[expr.ResCPU] += st.BusyTime()
			servers += float64(st.Servers())
			if d := st.Disk(); d != nil {
				busy[expr.ResDisk] += d.BusyTime()
				disks++
			}
			if n := st.Net(); n != nil {
				busy[expr.ResNet] += n.BusyTime()
				nets++
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
		if dt > 0 {
			if servers > 0 {
				env.Util[ti][expr.ResCPU] = (busy[expr.ResCPU] - o.prevBusy[ti][expr.ResCPU]) / (dt * servers)
			}
			if disks > 0 {
				env.Util[ti][expr.ResDisk] = (busy[expr.ResDisk] - o.prevBusy[ti][expr.ResDisk]) / (dt * disks)
			}
			if nets > 0 {
				env.Util[ti][expr.ResNet] = (busy[expr.ResNet] - o.prevBusy[ti][expr.ResNet]) / (dt * nets)
			}
		}
		o.prevBusy[ti] = busy
		env.Replicas[ti] = float64(len(active))
	}
	o.prevTime = now
	return env
}

// quantileSorted interpolates like metrics.Sample.Quantile over an
// already-sorted window, so DES window quantiles match the whole-run
// statistics' definition. Empty windows report zero.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// armDES schedules the window boundaries on the trial kernel. Call it at
// the start of the measured run, right after accounting has been reset
// and measurement begun: the first window opens at that instant. users0
// is the population the trial started with.
func (h *exprHooks) armDES(k *sim.Kernel, driver *sim.Driver, nt *sim.NTier,
	stationOf map[string]*sim.Station, users0 int) {

	obs := &desObserver{driver: driver, nt: nt, prevTime: k.Now()}

	target := users0
	end := h.warm + h.run
	var tick func()
	tick = func() {
		now := k.Now()
		tStart := (obs.prevTime - h.warm) / h.ts
		env := obs.observe(now, h.warm, h.ts)
		h.observeSLO(&env, tStart)
		for _, g := range h.guards {
			if g.shouldFire(&env, now) {
				armFault(k, driver, stationOf, g.ev, 0, g.ev.DurationSec*h.ts)
			}
		}
		if h.users != nil {
			// The population follows the expression at the observation
			// cadence: the window just closed supplies the environment, and
			// new sessions enter (or leave) at the boundary — observation-
			// driven workload evolution, not an oracle schedule.
			want := clampUsers(h.users.Eval(&env), h.capUsers)
			switch {
			case want > target:
				driver.AddUsers(want-target, 0)
			case want < target:
				driver.RemoveUsers(target - want)
			}
			target = want
		}
		h.applyPolicies(&env)
		if rem := end - now; rem > 1e-9 {
			if rem > h.windowSec {
				rem = h.windowSec
			}
			k.Schedule(rem, tick)
		}
	}
	first := h.windowSec
	if first > h.run {
		first = h.run
	}
	k.Schedule(first, tick)
}

// --- fluid side -------------------------------------------------------

// fluidObserver builds per-window environments from the fluid solver's
// window statistics and cumulative busy integrals, mirroring what the
// DES observer reads from its own counters.
type fluidObserver struct {
	solver   *fluid.Solver
	prevSnap fluid.Snapshot
	prevBusy [expr.NumTiers][expr.NumResources]float64
	lastQ    [3]float64 // last non-empty window's p50/p90/p99
}

func (o *fluidObserver) observe(warm, ts float64) expr.Env {
	cur := o.solver.Snapshot()
	st := o.solver.StatsBetween(o.prevSnap, cur)
	env := expr.Env{T: (cur.Time - warm) / ts}
	if st.DurationSec > 0 {
		// x() is goodput — successful, in-deadline completions per
		// second — the same definition the DES observer applies to its
		// OK, non-timed-out records, so a cross-engine x() assert reads
		// one quantity.
		env.X = st.Requests / st.DurationSec
	}
	if st.Requests > 1e-9 {
		env.P50, env.P90, env.P99 = st.P50ms/1000, st.P90ms/1000, st.P99ms/1000
		o.lastQ = [3]float64{env.P50, env.P90, env.P99}
	} else {
		// Empty window: carry the last non-empty window's quantiles
		// forward, mirroring the DES observer's stall semantics.
		env.P50, env.P90, env.P99 = o.lastQ[0], o.lastQ[1], o.lastQ[2]
	}
	dt := cur.Time - o.prevSnap.Time
	for ti := 0; ti < expr.NumTiers; ti++ {
		busy := [expr.NumResources]float64{
			expr.ResCPU:  o.solver.NodeCPUBusy(ti),
			expr.ResDisk: o.solver.NodeDiskBusy(ti),
			expr.ResNet:  o.solver.NodeNetBusy(ti),
		}
		if dt > 0 {
			cores := float64(o.solver.NodeCores(ti))
			if cores > 0 {
				env.Util[ti][expr.ResCPU] = (busy[expr.ResCPU] - o.prevBusy[ti][expr.ResCPU]) / (dt * cores)
			}
			env.Util[ti][expr.ResDisk] = (busy[expr.ResDisk] - o.prevBusy[ti][expr.ResDisk]) / dt
			env.Util[ti][expr.ResNet] = (busy[expr.ResNet] - o.prevBusy[ti][expr.ResNet]) / dt
		}
		o.prevBusy[ti] = busy
		env.Replicas[ti] = float64(o.solver.TierNodes(ti))
	}
	o.prevSnap = cur
	return env
}

// runFluidWindows drives the measured run period window by window:
// integrate to the boundary (letting the monitor's kernel ticks land on
// schedule), close the observation window, evaluate the SLO assert, and
// retarget the fluid population. Call it with the kernel and solver both
// standing at the start of the run period.
func (h *exprHooks) runFluidWindows(k *sim.Kernel, solver *fluid.Solver, users0 int) {
	obs := &fluidObserver{solver: solver, prevSnap: solver.Snapshot()}
	for ti := 0; ti < expr.NumTiers; ti++ {
		obs.prevBusy[ti] = [expr.NumResources]float64{
			expr.ResCPU:  solver.NodeCPUBusy(ti),
			expr.ResDisk: solver.NodeDiskBusy(ti),
			expr.ResNet:  solver.NodeNetBusy(ti),
		}
	}
	target := users0
	end := h.warm + h.run
	for now := h.warm; end-now > 1e-9; {
		next := now + h.windowSec
		if next > end {
			next = end
		}
		k.Run(next)
		solver.Advance(next)
		tStart := (now - h.warm) / h.ts
		env := obs.observe(h.warm, h.ts)
		h.observeSLO(&env, tStart)
		if h.users != nil {
			want := clampUsers(h.users.Eval(&env), h.capUsers)
			if want != target {
				solver.SetSessions(want)
				target = want
			}
		}
		h.applyPolicies(&env)
		now = next
	}
}
