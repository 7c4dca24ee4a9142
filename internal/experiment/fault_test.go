package experiment

import (
	"strings"
	"testing"

	"elba/internal/deploy"
	"elba/internal/fault"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

func profile(t *testing.T, name string) *fault.Profile {
	t.Helper()
	p, ok := fault.ProfileByName(name)
	if !ok {
		t.Fatalf("built-in profile %s missing", name)
	}
	return &p
}

// TestFaultProfileDeterministicAcrossWorkers extends the tentpole
// determinism property to fault injection: with a profile armed, a seeded
// sweep stores byte-identical results for any trial worker count, because
// fault plans, slow-node factors, and deploy glitches all derive purely
// from the seed and the experiment coordinates.
func TestFaultProfileDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"light", "heavy"} {
		arm := func(workers int) (string, string) {
			csv, jsonText, _ := runGrid(t, workers, func(r *Runner) {
				r.Seed = 42
				r.FaultProfile = profile(t, name)
				r.TrialRetries = 1
			})
			return csv, jsonText
		}
		baseCSV, baseJSON := arm(1)
		if !strings.Contains(baseJSON, `"fault_profile": "`+name+`"`) {
			t.Fatalf("profile %s: stored results carry no fault profile", name)
		}
		for _, workers := range []int{4, 8} {
			csv, jsonText := arm(workers)
			if csv != baseCSV {
				t.Fatalf("profile %s, workers=%d: CSV diverged from sequential run:\n--- seq ---\n%s\n--- par ---\n%s",
					name, workers, baseCSV, csv)
			}
			if jsonText != baseJSON {
				t.Fatalf("profile %s, workers=%d: JSON diverged from sequential run", name, workers)
			}
		}
	}
}

// TestNoFaultProfileKeepsBaselineBytes pins backward compatibility: the
// explicit "none" profile stores exactly what a run without any fault
// wiring stores, and no fault bookkeeping leaks into the serialization.
func TestNoFaultProfileKeepsBaselineBytes(t *testing.T) {
	baseCSV, baseJSON, _ := runGrid(t, 2, nil)
	csv, jsonText, _ := runGrid(t, 2, func(r *Runner) {
		r.FaultProfile = profile(t, "none")
		r.TrialRetries = 2 // no failures, so the budget must never engage
	})
	if csv != baseCSV {
		t.Fatalf("profile none changed the CSV:\n--- base ---\n%s\n--- none ---\n%s", baseCSV, csv)
	}
	if jsonText != baseJSON {
		t.Fatalf("profile none changed the JSON serialization")
	}
	for _, field := range []string{"fault_profile", "fault_events", "injected_errors",
		"deploy_retries", "deploy_seconds", "attempts"} {
		if strings.Contains(baseJSON, field) {
			t.Fatalf("fault-free serialization contains %q:\n%s", field, baseJSON)
		}
	}
}

// TestCrashMidSweepCompletesGridWithGaps is the issue's acceptance
// scenario: a node crash covering the measured period fails its trials,
// but under KeepGoingOnFailure the sweep still visits every grid point,
// records the failures as gaps, and the availability table renders them.
func TestCrashMidSweepCompletesGridWithGaps(t *testing.T) {
	r := testRunner(t)
	r.TrialParallel = 2
	r.TrialRetries = 1
	e := rubisExperiment(t, `
		topologies 1-1-1, 1-2-1;
		workload { users 50 to 100 step 50; writeratio 15; }
		faults { JONAS1 crash at 10s for 280s; }`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	st := r.Store()
	if st.Len() != 4 {
		t.Fatalf("sweep stored %d results, want all 4 grid points", st.Len())
	}
	failed := 0
	for _, res := range st.All() {
		if res.Completed {
			continue
		}
		failed++
		if res.FailReason == "" {
			t.Errorf("%s failed without a reason", res.Key)
		}
		if res.Attempts != 2 {
			t.Errorf("%s: attempts = %d, want 2 (1 retry spent)", res.Key, res.Attempts)
		}
	}
	// Crashing the only app server of 1-1-1 for ~93% of the run makes its
	// trials exceed the 5% error threshold deterministically.
	if failed == 0 {
		t.Fatal("no grid point failed despite a run-long app-server crash")
	}
	table := report.TableAvailability(st, "rubis-it")
	if !strings.Contains(table, "1-1-1") || !strings.Contains(table, "1-2-1") {
		t.Fatalf("availability table missing topologies:\n%s", table)
	}
	if !strings.Contains(table, "Availability") {
		t.Fatalf("availability table header missing:\n%s", table)
	}
}

// TestTrialRetrySalvagesTransientFailure exercises the retry budget's
// purpose: a failure caused by an unlucky random draw (an error burst) can
// succeed on a re-run because the attempt index is mixed into the trial
// seed, while the fault plan itself stays fixed.
func TestTrialRetrySalvagesTransientFailure(t *testing.T) {
	run := func(retries int) store.Result {
		r := testRunner(t)
		r.TrialRetries = retries
		e := rubisExperiment(t, `
			workload { users 50; writeratio 15; }
			faults { client errorburst 0.9 at 10s for 280s; }`)
		if err := r.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
		res, ok := r.Store().Get(store.Key{
			Experiment: "rubis-it", Topology: "1-1-1", Users: 50, WriteRatioPct: 15,
		})
		if !ok {
			t.Fatal("grid point missing from store")
		}
		return res
	}
	base := run(0)
	if base.Completed {
		t.Fatal("a 90% error burst over the whole run should fail the trial")
	}
	if base.Attempts != 0 {
		t.Fatalf("without a retry budget, attempts should stay unset, got %d", base.Attempts)
	}
	retried := run(3)
	if retried.Attempts < 2 {
		t.Fatalf("retry budget unused: attempts = %d", retried.Attempts)
	}
	// The burst window itself is part of the declared experiment, so every
	// attempt re-fails; what matters is that all attempts were spent and
	// the final failure is recorded with its count.
	if retried.Completed {
		t.Log("retry unexpectedly salvaged the trial; acceptable but surprising")
	}
	if retried.InjectedErrors == 0 {
		t.Fatal("error burst recorded no injected errors")
	}
}

// TestFaultPlanFollowsRootSeed checks that changing the runner seed moves
// the injected fault schedule: two universes see different fault windows,
// and each universe reproduces its own exactly.
func TestFaultPlanFollowsRootSeed(t *testing.T) {
	run := func(seed uint64) []string {
		r := testRunner(t)
		r.Seed = seed
		r.FaultProfile = profile(t, "heavy")
		e := rubisExperiment(t, `workload { users 50; writeratio 15; }`)
		if err := r.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
		var events []string
		for _, res := range r.Store().All() {
			events = append(events, res.FaultEvents...)
		}
		return events
	}
	a1, a2, b := run(7), run(7), run(8)
	if strings.Join(a1, ";") != strings.Join(a2, ";") {
		t.Fatalf("same seed injected different fault schedules:\n%v\n%v", a1, a2)
	}
	if strings.Join(a1, ";") == strings.Join(b, ";") {
		t.Fatalf("different seeds injected identical fault schedules: %v", a1)
	}
}

// TestRunExperimentReportsTeardownErrors checks that a failed teardown.sh
// reaches RunExperiment's caller from both the sequential and the
// parallel sweep. Under the searched seed the profile's deploy glitches
// exhaust the retry budget only in teardown.sh, so the deployment comes
// up, the whole grid is stored, and only the teardown fails.
func TestRunExperimentReportsTeardownErrors(t *testing.T) {
	prof := fault.Profile{Name: "teardown-glitches", GlitchProb: 0.2, MaxGlitches: 6}
	e := rubisExperiment(t, `topologies 1-1-1; workload { users 50 to 100 step 50; writeratio 15; }`)
	probe := testRunner(t)
	d, err := probe.gen.GenerateOne(e, spec.Topology{Web: 1, App: 1, DB: 1})
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	for s := uint64(1); s <= 200 && seed == 0; s++ {
		probe.Seed = s
		cl, err := probe.newCluster(e)
		if err != nil {
			t.Fatal(err)
		}
		dp := deploy.NewDeployer(cl)
		probe.armDeployer(dp, prof, e, d)
		p, err := dp.Deploy(d)
		if err != nil {
			continue
		}
		if err := dp.Undeploy(p); err != nil && strings.Contains(err.Error(), "teardown.sh") {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..200 fails only the teardown")
	}
	for _, workers := range []int{1, 2} {
		r := testRunner(t)
		r.Seed = seed
		r.FaultProfile = &prof
		r.TrialParallel = workers
		err := r.RunExperiment(e)
		if err == nil || !strings.Contains(err.Error(), "teardown.sh") {
			t.Fatalf("workers=%d: RunExperiment = %v, want the teardown.sh failure", workers, err)
		}
		if n := r.Store().Len(); n != 2 {
			t.Fatalf("workers=%d: stored %d results, want the grid's 2", workers, n)
		}
	}
}
