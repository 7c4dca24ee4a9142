package experiment

import (
	"fmt"
	"math"

	"elba/internal/expr"
	"elba/internal/fault"
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
// that just closed, in declaration order, and actuates them on eng. A
// policy fires when its predicate holds, its cooldown has elapsed, and
// its bound leaves room to move; firing updates env.Replicas so later
// policies at the same boundary (and nothing else — the window's other
// signals are already observed) see the new count. Times are protocol
// seconds, so cooldowns are time-scale–invariant like every other spec
// duration.
func (h *exprHooks) applyPolicies(env *expr.Env, eng engine) {
	for _, ps := range h.policies {
		if env.T-ps.last < ps.pol.CooldownSec-1e-9 {
			continue
		}
		if !ps.prog.EvalBool(env) {
			continue
		}
		cur := eng.replicas(ps.tier)
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
		got := eng.scale(ps.tier, target)
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

// windowObserver turns an engine's window readings into expression
// environments: goodput and quantiles from the window itself, and
// utilization as each busy integral's delta over the elapsed engine time
// and the tier's capacity units. Time and window width come from the
// engine's own clock.
type windowObserver struct {
	warm, ts float64
	prevTime float64
	prevBusy [expr.NumTiers][expr.NumResources]float64
	lastQ    [3]float64 // last served window's p50/p90/p99
}

// env closes the window the previous call opened and reads it from eng.
func (o *windowObserver) env(eng engine) expr.Env {
	w := eng.observe()
	dt := w.now - o.prevTime
	env := expr.Env{T: (w.now - o.warm) / o.ts}
	if dt > 0 {
		// x() is goodput: successful, in-deadline completions per second.
		// Errored and timed-out requests burn capacity but deliver nothing,
		// so an SLO on x() sees an error burst as the throughput loss it is.
		env.X = w.goodput / dt
	}
	// An empty window is a stall, not perfection: it carries the last
	// served window's quantiles forward, so a latency assert keeps judging
	// the last observed behaviour instead of trivially passing on zeros.
	// Before first traffic the carried values are still zero.
	if w.served {
		o.lastQ = w.q
	}
	env.P50, env.P90, env.P99 = o.lastQ[0], o.lastQ[1], o.lastQ[2]
	for ti := range w.busy {
		if dt > 0 {
			for r, units := range w.units[ti] {
				if units > 0 {
					env.Util[ti][r] = (w.busy[ti][r] - o.prevBusy[ti][r]) / (dt * units)
				}
			}
		}
		env.Replicas[ti] = float64(eng.replicas(ti))
	}
	o.prevTime, o.prevBusy = w.now, w.busy
	return env
}

// runWindows drives the measured run period window by window: advance
// the engine to the boundary, close the observation window, judge the
// SLO assert, fire the when-guarded faults, retarget the population and
// apply the policies. Call it with the engine standing at the start of
// the measured run.
func (h *exprHooks) runWindows(eng engine) {
	obs := windowObserver{warm: h.warm, ts: h.ts}
	// The reading at run start only opens the first window.
	obs.env(eng)
	// Evaluation escapes env to the heap; one variable serves every
	// window.
	var env expr.Env
	end := h.warm + h.run
	for now := h.warm; end-now > 1e-9; {
		next := now + h.windowSec
		if next > end {
			next = end
		}
		eng.advance(next)
		env = obs.env(eng)
		h.observeSLO(&env, (now-h.warm)/h.ts)
		for _, g := range h.guards {
			if g.shouldFire(&env, next) {
				eng.inject(g.ev, g.ev.DurationSec*h.ts)
			}
		}
		if h.users != nil {
			// The population follows the expression at the observation
			// cadence: the window just closed supplies the environment, and
			// sessions enter (or leave) at the boundary — observation-driven
			// workload evolution, not an oracle schedule.
			eng.retarget(clampUsers(h.users.Eval(&env), h.capUsers))
		}
		h.applyPolicies(&env, eng)
		now = next
	}
}
