package sim

import (
	"testing"
)

func TestServeOutcomeStrings(t *testing.T) {
	if OK.String() != "ok" || Rejected.String() != "rejected" || Failed.String() != "failed" {
		t.Fatalf("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatalf("unknown outcome should render")
	}
}

func TestServeRoutesAllTiers(t *testing.T) {
	k := NewKernel(1)
	nt := buildApp(k, 1, 2, 1)
	done := 0
	it := Interaction{Name: "x", WebDemand: 0.001, AppDemand: 0.002, DBDemand: 0.001}
	nt.ServeSession(-1, it, func(out Outcome) {
		if out != OK {
			t.Errorf("outcome = %v", out)
		}
		done++
	})
	k.Run(1)
	if done != 1 {
		t.Fatalf("done fired %d times", done)
	}
	if nt.Web.Completed() != 1 || nt.App.Completed() != 1 || nt.DB.Completed() != 1 {
		t.Fatalf("tiers not all visited: %d/%d/%d",
			nt.Web.Completed(), nt.App.Completed(), nt.DB.Completed())
	}
	w, a, d := nt.Web.Size(), nt.App.Size(), nt.DB.Size()
	if w != 1 || a != 2 || d != 1 {
		t.Fatalf("topology = %d-%d-%d", w, a, d)
	}
}

func TestServeWriteBroadcasts(t *testing.T) {
	k := NewKernel(1)
	nt := buildApp(k, 1, 1, 3)
	it := Interaction{Name: "w", AppDemand: 0.001, DBDemand: 0.001, Write: true}
	nt.ServeSession(-1, it, func(Outcome) {})
	k.Run(1)
	if nt.DB.Completed() != 3 {
		t.Fatalf("write visited %d replicas, want 3", nt.DB.Completed())
	}
}

func TestStickySessionsPinUsers(t *testing.T) {
	k := NewKernel(1)
	nt := buildApp(k, 1, 3, 1)
	nt.StickyApp = true
	it := Interaction{Name: "x", AppDemand: 0.001}
	// Session 1 always lands on station 1.
	for i := 0; i < 10; i++ {
		nt.ServeSession(1, it, func(Outcome) {})
		k.Run(k.Now() + 1)
	}
	stations := nt.App.Stations()
	if stations[1].Completed() != 10 {
		t.Fatalf("pinned station served %d, want 10", stations[1].Completed())
	}
	if stations[0].Completed() != 0 || stations[2].Completed() != 0 {
		t.Fatalf("affinity leaked to other stations")
	}
}

func TestStickyFailureIsolatesCohort(t *testing.T) {
	// With sticky sessions, failing one of two app servers harms exactly
	// the users pinned to it; the others are untouched. Without
	// stickiness, round-robin spreads the errors over everyone.
	run := func(sticky bool) (errsEven, errsOdd int) {
		k := NewKernel(3)
		nt := buildApp(k, 1, 2, 1)
		nt.StickyApp = sticky
		nt.App.Stations()[1].Fail()
		it := Interaction{Name: "x", AppDemand: 0.001}
		for user := 0; user < 10; user++ {
			user := user
			for r := 0; r < 4; r++ {
				nt.ServeSession(user, it, func(out Outcome) {
					if out != OK {
						if user%2 == 0 {
							errsEven++
						} else {
							errsOdd++
						}
					}
				})
				k.Run(k.Now() + 0.5)
			}
		}
		return
	}
	even, odd := run(true)
	if even != 0 || odd != 20 {
		t.Fatalf("sticky failure should hit only the pinned cohort: even=%d odd=%d", even, odd)
	}
	evenRR, oddRR := run(false)
	if evenRR == 0 || oddRR == 0 {
		t.Fatalf("round-robin failure should spread: even=%d odd=%d", evenRR, oddRR)
	}
}

func TestSubmitPinnedNegativeKey(t *testing.T) {
	k := NewKernel(1)
	tier := makeTier(k, 3, RoundRobin)
	tier.SubmitPinned(-4, 1.0, func(bool, float64, float64) {})
	// -4 → 4 % 3 = station 1; mostly we care it does not panic.
	if tier.Stations()[1].InFlight() != 1 {
		t.Fatalf("negative pin routed wrong")
	}
}

func TestDriverStickyIntegration(t *testing.T) {
	k := NewKernel(5)
	nt := buildApp(k, 1, 2, 1)
	nt.StickyApp = true
	model := fixedModel{it: Interaction{Name: "ix", AppDemand: 0.005}, think: 0.2}
	d := NewDriver(k, nt, model, DriverConfig{Users: 2, RampUp: 0.1}, 7)
	d.Start()
	d.BeginMeasurement()
	k.Run(20)
	d.EndMeasurement()
	s := nt.App.Stations()
	if s[0].Completed() == 0 || s[1].Completed() == 0 {
		t.Fatalf("two sticky users should cover both stations: %d/%d",
			s[0].Completed(), s[1].Completed())
	}
}

// ServeSession routes one interaction for the given user session.
// Response time is measured by the caller (the driver) from submit to
// completion; ServeSession itself adds no hidden delays. When StickyApp
// is set and session >= 0, the app tier uses the session's pinned server.
func (nt *NTier) ServeSession(session int, it Interaction, done func(Outcome)) {
	nt.serveSession(session, &it, outcomeFunc(done), nil)
}

// outcomeFunc adapts a func(Outcome) to outcomeDone without allocation.
type outcomeFunc func(Outcome)

func (f outcomeFunc) requestDone(o Outcome) { f(o) }
