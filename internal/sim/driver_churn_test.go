package sim

import (
	"reflect"
	"testing"
)

// churnModel is a light two-demand workload for population-churn tests.
func churnModel() fixedModel {
	return fixedModel{
		it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.010, DBDemand: 0.002},
		think: 0.5,
	}
}

// TestDriverChurnAccounting interleaves AddUsers and RemoveUsers and pins
// the session bookkeeping a dynamic-population trial leans on: ActiveUsers
// tracks every step, retired sessions are never resurrected, their user
// ids are never reused by late joiners, and over-removal floors at zero
// instead of panicking or going negative.
func TestDriverChurnAccounting(t *testing.T) {
	k := NewKernel(3)
	app := buildApp(k, 1, 2, 1, 0)
	d := NewDriver(k, app, churnModel(), DriverConfig{Users: 10, RampUp: 1}, 7)
	d.Start()
	k.Run(5)
	if got := d.ActiveUsers(); got != 10 {
		t.Fatalf("after Start: ActiveUsers = %d, want 10", got)
	}

	d.RemoveUsers(4)
	if got := d.ActiveUsers(); got != 6 {
		t.Fatalf("after RemoveUsers(4): ActiveUsers = %d, want 6", got)
	}
	d.AddUsers(3, 0)
	if got := d.ActiveUsers(); got != 9 {
		t.Fatalf("after AddUsers(3): ActiveUsers = %d, want 9", got)
	}
	// Retired sessions stay retired and keep their ids; the three joiners
	// got fresh ids past the old population, so no id is ever reused.
	if got := len(d.users); got != 13 {
		t.Fatalf("user roster = %d entries, want 13 (10 started + 3 joined)", got)
	}
	seen := make(map[int]bool, len(d.users))
	retired := 0
	for _, u := range d.users {
		if seen[u.id] {
			t.Fatalf("user id %d reused", u.id)
		}
		seen[u.id] = true
		if u.stop {
			retired++
		}
	}
	if retired != 4 {
		t.Fatalf("roster carries %d retired sessions, want 4", retired)
	}

	// Over-removal retires everyone and stops at zero.
	d.RemoveUsers(100)
	if got := d.ActiveUsers(); got != 0 {
		t.Fatalf("after over-removal: ActiveUsers = %d, want 0", got)
	}

	// Regrowth after a full drain: new sessions are live and make
	// progress — the drained driver is not a dead driver.
	k.Run(20)
	before := d.completed
	d.AddUsers(5, 0)
	if got := d.ActiveUsers(); got != 5 {
		t.Fatalf("after regrow: ActiveUsers = %d, want 5", got)
	}
	k.Run(40)
	if d.completed <= before {
		t.Fatalf("regrown population completed no requests (%d before, %d after)",
			before, d.completed)
	}
}

// churnRun executes one seeded trial with a scripted mid-run churn
// schedule (surge, deep drain, regrow) and returns what it measured.
func churnRun(t *testing.T) measured {
	t.Helper()
	k := NewKernel(3)
	app := buildApp(k, 1, 2, 1, 0)
	d := NewDriver(k, app, churnModel(), DriverConfig{Users: 12, RampUp: 2}, 42)
	tap := &completionTap{k: k}
	d.SetRTObserver(tap)
	d.Start()
	k.Run(10)
	d.BeginMeasurement()
	k.Schedule(5, func() { d.AddUsers(7, 2) })
	k.Schedule(12, func() { d.RemoveUsers(15) })
	k.Schedule(20, func() { d.AddUsers(6, 0) })
	k.Run(k.Now() + 40)
	d.EndMeasurement()
	return tap.measured(d)
}

// TestDriverChurnDeterministic pins measurement reproducibility across
// population churn: two identically seeded runs of the same scripted
// surge/drain/regrow schedule complete the identical success stream
// (times and response times, bit for bit) and count the same requests
// and errors, so a dynamic-workload trial stays as reproducible as a
// static one.
func TestDriverChurnDeterministic(t *testing.T) {
	a, b := churnRun(t), churnRun(t)
	if len(a.done) == 0 {
		t.Fatal("churn run measured no requests")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("measurements diverge across identical churn runs (%d vs %d successes)",
			len(a.done), len(b.done))
	}
}
