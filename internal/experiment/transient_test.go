package experiment

import (
	"strings"
	"testing"

	"elba/internal/spec"
)

// transientSchedule is the three-phase surge used by the fault-window
// tests: steady, surge, recovery, each 200 unscaled seconds.
var transientSchedule = []PopulationPhase{
	{Users: 100, DurationSec: 200},
	{Users: 100, DurationSec: 200},
	{Users: 100, DurationSec: 200},
}

func runTransient(t *testing.T, faults string, schedule []PopulationPhase) []PhaseResult {
	t.Helper()
	r := testRunner(t)
	// The schedule spans 600 unscaled seconds; widen the declared run
	// period to match so fault windows anywhere in it validate.
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }
		trial { warmup 60s; run 600s; cooldown 60s; }
		`+faults)
	phases, err := r.RunTransientAt(e, spec.Topology{Web: 1, App: 2, DB: 1}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != len(schedule) {
		t.Fatalf("phases = %d, want %d", len(phases), len(schedule))
	}
	return phases
}

// TestTransientTrialStallCrossesPhaseBoundary injects a disk-stall window
// spanning the boundary between the first two phases (150s–300s against
// 200s phases). Both phases the window touches must show the damage
// relative to an otherwise identical fault-free run, and the untouched
// final phase must not.
func TestTransientTrialStallCrossesPhaseBoundary(t *testing.T) {
	base := runTransient(t, "", transientSchedule)
	hit := runTransient(t, `faults { JONAS1 stall 0.02 at 150s for 150s; }`, transientSchedule)

	// The same seed drives both runs, so every difference is the fault's.
	for _, i := range []int{0, 1} {
		if hit[i].Throughput >= base[i].Throughput {
			t.Errorf("phase %d: stall did not cut throughput: %.1f vs %.1f",
				i, hit[i].Throughput, base[i].Throughput)
		}
		if hit[i].AvgRTms <= base[i].AvgRTms {
			t.Errorf("phase %d: stall did not raise response time: %.1f vs %.1f",
				i, hit[i].AvgRTms, base[i].AvgRTms)
		}
	}
	// Phase 2 starts 100s after recovery; the backlog has drained and
	// throughput should be back within a few percent of the clean run.
	if hit[2].Throughput < base[2].Throughput*0.9 {
		t.Errorf("phase 2 did not recover after the stall: %.1f vs %.1f",
			hit[2].Throughput, base[2].Throughput)
	}
}

// TestTransientTrialCrashWindow checks the crash kind end to end in a
// transient trial: a crashed app server refuses its share of requests for
// the window, so the covered phase serves fewer of them, and the phase
// before the window is untouched.
func TestTransientTrialCrashWindow(t *testing.T) {
	base := runTransient(t, "", transientSchedule)
	hit := runTransient(t, `faults { JONAS1 crash at 210s for 150s; }`, transientSchedule)
	if hit[1].Throughput >= base[1].Throughput {
		t.Fatalf("crash window refused nothing in its phase: %.1f vs %.1f req/s",
			hit[1].Throughput, base[1].Throughput)
	}
	if hit[0] != base[0] {
		t.Errorf("crash at 210s leaked into phase 0: %+v vs %+v", hit[0], base[0])
	}
}

// TestTransientTrialErrorBurst checks the client-side burst kind: request
// failures injected at the driver appear only in the burst's phase. The
// driver fails bursts before service, so throughput of successful
// requests drops.
func TestTransientTrialErrorBurst(t *testing.T) {
	base := runTransient(t, "", transientSchedule)
	hit := runTransient(t, `faults { client errorburst 0.9 at 220s for 100s; }`, transientSchedule)
	if hit[1].Throughput >= base[1].Throughput {
		t.Errorf("burst did not reduce successful throughput: %.1f vs %.1f",
			hit[1].Throughput, base[1].Throughput)
	}
	if hit[0] != base[0] {
		t.Errorf("burst at 220s leaked into phase 0: %+v vs %+v", hit[0], base[0])
	}
}

// TestTransientTrialFaultRoleValidation mirrors the steady-state runner's
// behaviour: a fault naming a role absent from the deployed topology is an
// error, not a silent no-op.
func TestTransientTrialFaultRoleValidation(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }
		faults { JONAS3 stall 0.05 at 10s for 10s; }`)
	_, err := r.RunTransientAt(e, spec.Topology{Web: 1, App: 2, DB: 1},
		[]PopulationPhase{{Users: 50, DurationSec: 100}})
	if err == nil {
		t.Fatal("fault on an absent role accepted")
	}
	if !strings.Contains(err.Error(), "JONAS3") {
		t.Fatalf("error does not name the missing role: %v", err)
	}
}
