package experiment

import (
	"strings"
	"testing"

	"elba/internal/expr"
	"elba/internal/spec"
	"elba/internal/store"
)

// fakeEngine is an engine whose tiers are plain counters, with an
// optional hard ceiling that models spare-pool exhaustion: scale stops at
// the ceiling no matter what target the policy asked for. Only the tier
// operations are implemented; policies touch nothing else.
type fakeEngine struct {
	engine
	n       [expr.NumTiers]int
	ceiling int // 0 = unlimited
}

func (f *fakeEngine) replicas(tier int) int { return f.n[tier] }

func (f *fakeEngine) scale(tier, target int) int {
	if f.ceiling > 0 && target > f.ceiling {
		target = f.ceiling
	}
	f.n[tier] = target
	return f.n[tier]
}

// policyHooks compiles a policies-only experiment into exprHooks,
// mirroring what a trial does before its first window.
func policyHooks(t *testing.T, pols ...spec.Policy) *exprHooks {
	t.Helper()
	h, err := newExprHooks(&spec.Experiment{Policies: pols}, 0, 600, 1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		t.Fatal("policies compiled to nil hooks")
	}
	return h
}

// hotEnv is a window environment whose app-tier CPU utilization satisfies
// "> 0.8" predicates.
func hotEnv(tSec float64) expr.Env {
	env := expr.Env{T: tSec}
	env.Util[expr.TierApp][expr.ResCPU] = 0.95
	return env
}

// TestPolicyCooldownPacing fires a scale-out policy against a predicate
// that holds in every window and checks the cooldown turns the response
// into a staircase: one firing per cooldown period, at the first window
// boundary at or past expiry, never in between.
func TestPolicyCooldownPacing(t *testing.T) {
	act := &fakeEngine{}
	act.n[expr.TierApp] = 2
	h := policyHooks(t, spec.Policy{
		Tier: "app", Delta: 1, WhenExpr: "util(app, cpu) > 0.8",
		CooldownSec: 30, Max: 12,
	})
	for tSec := 0.0; tSec <= 100; tSec += 5 {
		env := hotEnv(tSec)
		h.applyPolicies(&env, act)
	}
	// Firings at t=0, 30, 60, 90: four steps, 2→3→4→5→6.
	want := []store.ScaleEvent{
		{TSec: 0, Tier: "app", From: 2, To: 3},
		{TSec: 30, Tier: "app", From: 3, To: 4},
		{TSec: 60, Tier: "app", From: 4, To: 5},
		{TSec: 90, Tier: "app", From: 5, To: 6},
	}
	if len(h.scaleEvents) != len(want) {
		t.Fatalf("events = %v, want %v", h.scaleEvents, want)
	}
	for i := range want {
		if h.scaleEvents[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, h.scaleEvents[i], want[i])
		}
	}
	if act.n[expr.TierApp] != 6 {
		t.Errorf("replicas = %d, want 6", act.n[expr.TierApp])
	}
}

// TestPolicyBoundIsNotAFiring parks a scale-out policy at its max while
// the predicate keeps holding: no events, and — the latch rule — no
// cooldown consumption, so the moment headroom appears (a scale-in frees
// a slot) the policy fires at the very next window instead of waiting
// out a cooldown it never used.
func TestPolicyBoundIsNotAFiring(t *testing.T) {
	act := &fakeEngine{}
	act.n[expr.TierApp] = 4
	h := policyHooks(t, spec.Policy{
		Tier: "app", Delta: 1, WhenExpr: "util(app, cpu) > 0.8",
		CooldownSec: 60, Max: 4,
	})
	for tSec := 0.0; tSec <= 20; tSec += 5 {
		env := hotEnv(tSec)
		h.applyPolicies(&env, act)
	}
	if len(h.scaleEvents) != 0 {
		t.Fatalf("at-max windows fired: %v", h.scaleEvents)
	}
	// Free a slot out of band; the next window must fire immediately.
	act.n[expr.TierApp] = 3
	env := hotEnv(25)
	h.applyPolicies(&env, act)
	if len(h.scaleEvents) != 1 || h.scaleEvents[0].TSec != 25 {
		t.Fatalf("after headroom appeared, events = %v, want one firing at t=25", h.scaleEvents)
	}
}

// TestPolicyShortfallIsNotAFiring exhausts the actuator's pool so Scale
// cannot move at all: no event is recorded and the cooldown stays
// unlatched, so the policy retries every window until capacity appears.
func TestPolicyShortfallIsNotAFiring(t *testing.T) {
	act := &fakeEngine{ceiling: 2}
	act.n[expr.TierApp] = 2
	h := policyHooks(t, spec.Policy{
		Tier: "app", Delta: 1, WhenExpr: "util(app, cpu) > 0.8",
		CooldownSec: 60, Max: 8,
	})
	env := hotEnv(0)
	h.applyPolicies(&env, act)
	if len(h.scaleEvents) != 0 {
		t.Fatalf("pool-exhausted window fired: %v", h.scaleEvents)
	}
	act.ceiling = 0
	env = hotEnv(5)
	h.applyPolicies(&env, act)
	if len(h.scaleEvents) != 1 || h.scaleEvents[0].TSec != 5 {
		t.Fatalf("after pool refill, events = %v, want one firing at t=5", h.scaleEvents)
	}
}

// TestPolicyScaleInFloor drives a scale-in policy into its min floor: the
// drain stops at min, a firing that would cross the floor clamps to it,
// and at-floor windows are no-ops.
func TestPolicyScaleInFloor(t *testing.T) {
	act := &fakeEngine{}
	act.n[expr.TierApp] = 5
	h := policyHooks(t, spec.Policy{
		Tier: "app", In: true, Delta: 2, WhenExpr: "util(app, cpu) < 0.3",
		CooldownSec: 0, Min: 2,
	})
	for tSec := 0.0; tSec <= 20; tSec += 5 {
		env := expr.Env{T: tSec} // idle: util 0 < 0.3
		h.applyPolicies(&env, act)
	}
	want := []store.ScaleEvent{
		{TSec: 0, Tier: "app", From: 5, To: 3},
		{TSec: 5, Tier: "app", From: 3, To: 2}, // clamped to the floor
	}
	if len(h.scaleEvents) != len(want) {
		t.Fatalf("events = %v, want %v", h.scaleEvents, want)
	}
	for i := range want {
		if h.scaleEvents[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, h.scaleEvents[i], want[i])
		}
	}
}

// TestPolicyDeclarationOrder runs two policies at one boundary and checks
// the second sees the first's actuation through env.Replicas: a guard
// expressed as replicas(app) < 4 stops being true within the same window
// once the first policy has pushed the count to 4.
func TestPolicyDeclarationOrder(t *testing.T) {
	act := &fakeEngine{}
	act.n[expr.TierApp] = 2
	h := policyHooks(t,
		spec.Policy{Tier: "app", Delta: 2, WhenExpr: "util(app, cpu) > 0.8",
			CooldownSec: 0, Max: 8},
		spec.Policy{Tier: "app", Delta: 1, WhenExpr: "util(app, cpu) > 0.8 && replicas(app) < 4",
			CooldownSec: 0, Max: 8},
	)
	env := hotEnv(0)
	env.Replicas[expr.TierApp] = 2
	h.applyPolicies(&env, act)
	// First policy 2→4; second's replicas(app) guard now reads 4 and holds fire.
	if len(h.scaleEvents) != 1 || h.scaleEvents[0].To != 4 {
		t.Fatalf("events = %v, want exactly [t=0s app 2→4]", h.scaleEvents)
	}
	if env.Replicas[expr.TierApp] != 4 {
		t.Errorf("env.Replicas not updated by firing: %v", env.Replicas[expr.TierApp])
	}
}

// TestPolicyEventsRecorded checks record() copies the timeline into the
// stored result and that an event renders the way the report prints it.
func TestPolicyEventsRecorded(t *testing.T) {
	act := &fakeEngine{}
	act.n[expr.TierApp] = 2
	h := policyHooks(t, spec.Policy{
		Tier: "app", Delta: 1, WhenExpr: "util(app, cpu) > 0.8", Max: 4,
	})
	env := hotEnv(15)
	h.applyPolicies(&env, act)
	var res store.Result
	h.record(&res)
	if len(res.ScaleEvents) != 1 {
		t.Fatalf("recorded events = %v", res.ScaleEvents)
	}
	if got := res.ScaleEvents[0].String(); got != "t=15s app 2→3" {
		t.Errorf("event renders %q", got)
	}
	if res.SLOAssert != "" || res.SLOWindows != 0 {
		t.Errorf("policies-only hooks wrote SLO fields: %+v", res)
	}
}

// TestInitialUsersClampsToCapacity pins the start-population clamp: a
// users expression that opens above the deployment's session capacity is
// cut to the cap — the same clamp every mid-run retarget applies — so a
// dynamic trial cannot begin with more sessions than AddUsers allows.
func TestInitialUsersClampsToCapacity(t *testing.T) {
	e := &spec.Experiment{}
	e.Workload.UsersExpr = "5000"
	cases := []struct {
		capUsers, want int
	}{
		{0, 5000},    // no known capacity: expression value stands
		{700, 700},   // clamped to the tomcat session cap
		{9000, 5000}, // roomy capacity: expression value stands
	}
	for _, c := range cases {
		got, err := initialUsers(e, c.capUsers)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("initialUsers(cap=%d) = %d, want %d", c.capUsers, got, c.want)
		}
	}
	e.Workload.UsersExpr = "-3"
	if got, _ := initialUsers(e, 700); got != 1 {
		t.Errorf("negative population clamps to 1, got %d", got)
	}
}

// TestPolicyFreeOutputByteIdentical is the byte-identity golden: the same
// sweep run with no policies clause and with an armed-but-never-firing
// policy must serialize identically, because ScaleEvents is omitempty and
// an inert policy leaves the trial's event stream untouched — the policy
// machinery costs policy-free (and firing-free) specs nothing observable.
func TestPolicyFreeOutputByteIdentical(t *testing.T) {
	base := `
		topology { web 1; app 2; db 1; }
		workload { users 50 to 100 step 50; writeratio 15; }`
	quiet := base + `
		policies { scale app by 1 when util(app, cpu) > 9.0 cooldown 0s max 4; }`

	run := func(extra string) string {
		r := testRunner(t)
		if err := r.RunExperiment(rubisExperiment(t, extra)); err != nil {
			t.Fatal(err)
		}
		data, err := r.Store().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	plain, armed := run(base), run(quiet)
	if strings.Contains(plain, "scale_events") {
		t.Fatalf("policy-free output mentions scale_events:\n%s", plain)
	}
	if plain != armed {
		t.Fatalf("armed-but-inert policy changed the serialized store:\n--- plain ---\n%s\n--- armed ---\n%s",
			plain, armed)
	}
}
