package experiment

import (
	"strings"
	"testing"

	"elba/internal/store"
)

// exprExperiment builds a one-topology RUBiS experiment with the given
// workload/slo/faults clauses, sharing the fast trial protocol.
func exprExperiment(t *testing.T, name, clauses string) *store.Store {
	t.Helper()
	r := testRunner(t)
	e := parseExperiment(t, `experiment "`+name+`" {
		benchmark rubis; platform emulab; appserver jonas;
		`+clauses+`
	}`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	return r.results
}

// TestUsersExprDrivesPopulation: a ramp expression grows the DES
// population mid-run, so the trial completes far more requests than the
// static trial at the expression's t=0 value — and the grid collapses to
// one point keyed by that value.
func TestUsersExprDrivesPopulation(t *testing.T) {
	ramped := exprExperiment(t, "expr-ramp",
		`workload { users 20 + 180*ramp(t/100s); writeratio 15; }`)
	static := exprExperiment(t, "expr-static",
		`workload { users 20; writeratio 15; }`)

	rs := ramped.Filter(func(store.Result) bool { return true })
	if len(rs) != 1 {
		t.Fatalf("users expression expanded to %d grid points, want 1", len(rs))
	}
	rr := rs[0]
	if rr.Key.Users != 20 {
		t.Fatalf("grid coordinate = %d users, want the t=0 value 20", rr.Key.Users)
	}
	sr, ok := static.Get(store.Key{Experiment: "expr-static", Topology: "1-1-1",
		Users: 20, WriteRatioPct: 15})
	if !ok {
		t.Fatal("static control trial missing")
	}
	// The ramp reaches 200 users a third into the run; anything close to
	// double the static request count proves the population actually grew.
	if rr.Requests < sr.Requests*2 {
		t.Fatalf("ramped trial completed %d requests vs static %d — population did not grow",
			rr.Requests, sr.Requests)
	}
	if !rr.Completed {
		t.Fatalf("ramped trial failed: %s", rr.FailReason)
	}
}

// TestSLOAssertWindows: the assert is evaluated once per monitor interval
// across the run period; an impossible predicate violates every window
// and a trivial one none, with the violation times inside the run.
func TestSLOAssertWindows(t *testing.T) {
	st := exprExperiment(t, "expr-slo",
		`workload { users 50; writeratio 15; }
		slo { assert x() < 1; }`)
	r := st.Filter(func(store.Result) bool { return true })[0]
	if r.SLOAssert != "x() < 1" {
		t.Fatalf("stored assert = %q", r.SLOAssert)
	}
	// Default protocol: 300 s run at 5 s monitor intervals = 60 windows
	// (time-scale–invariant).
	if r.SLOWindows != 60 {
		t.Fatalf("SLOWindows = %d, want 60", r.SLOWindows)
	}
	if r.SLOViolations != 60 {
		t.Fatalf("x() < 1 at 50 users violated %d/60 windows, want all", r.SLOViolations)
	}
	if got := r.SLOViolatedAt[0]; got != 0 {
		t.Fatalf("first violation at %g s, want window 0", got)
	}
	if last := r.SLOViolatedAt[len(r.SLOViolatedAt)-1]; last != 295 {
		t.Fatalf("last violation window starts at %g s, want 295", last)
	}

	pass := exprExperiment(t, "expr-slo-pass",
		`workload { users 50; writeratio 15; }
		slo { assert p99(rt) < 30s && util(db, cpu) < 1.5; }`)
	pr := pass.Filter(func(store.Result) bool { return true })[0]
	if pr.SLOWindows != 60 || pr.SLOViolations != 0 {
		t.Fatalf("passing assert: windows=%d violations=%d, want 60/0",
			pr.SLOWindows, pr.SLOViolations)
	}
	if len(pr.SLOViolatedAt) != 0 {
		t.Fatalf("passing assert recorded violation times: %v", pr.SLOViolatedAt)
	}
}

// TestWhenGuardGatesFault: a crash guarded by an unsatisfiable predicate
// never fires — the stored result is byte-identical to the fault-free
// spec — while a trivially-true guard fires and degrades the trial
// exactly like its unguarded twin would.
func TestWhenGuardGatesFault(t *testing.T) {
	workload := `workload { users 200; writeratio 15; } topology { web 1; app 2; db 1; }`

	clean := exprExperiment(t, "expr-guard", workload)
	never := exprExperiment(t, "expr-guard",
		workload+` faults { JONAS1 at 30s for 240s when x() > 100000; }`)
	cleanJSON, err := clean.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	neverJSON, err := never.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanJSON) != string(neverJSON) {
		t.Fatalf("unfired guard perturbed the trial:\n--- clean ---\n%s\n--- guarded ---\n%s",
			cleanJSON, neverJSON)
	}

	fired := exprExperiment(t, "expr-guard-hit",
		workload+` faults { JONAS1 at 30s for 240s when x() > 1; }`)
	fr := fired.Filter(func(store.Result) bool { return true })[0]
	cr := clean.Filter(func(store.Result) bool { return true })[0]
	// Losing one of two app servers for most of the run must show up:
	// fewer completions or a failed trial.
	if fr.Completed && fr.Requests >= cr.Requests*9/10 {
		t.Fatalf("guarded crash left the trial unharmed: %d requests vs clean %d",
			fr.Requests, cr.Requests)
	}
}

// TestExprFreeResultsCarryNoSLOFields pins serialization backward
// compatibility: expression-free sweeps store no slo_* keys at all.
func TestExprFreeResultsCarryNoSLOFields(t *testing.T) {
	_, jsonText, _ := runGrid(t, 1, nil)
	for _, field := range []string{"slo_assert", "slo_windows", "slo_violations", "slo_violated_at"} {
		if strings.Contains(jsonText, field) {
			t.Fatalf("expression-free serialization contains %q", field)
		}
	}
}
