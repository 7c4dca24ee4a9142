package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/monitor"
	"elba/internal/spec"
	"elba/internal/store"
)

// fastScale shrinks the paper's trial protocol ~7× so integration tests
// stay quick while keeping enough samples for stable means.
const fastScale = 0.15

func testRunner(t *testing.T) *Runner {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cat, store.New())
	if err != nil {
		t.Fatal(err)
	}
	r.TimeScale = fastScale
	return r
}

func parseExperiment(t *testing.T, src string) *spec.Experiment {
	t.Helper()
	doc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Experiments[0]
}

func rubisExperiment(t *testing.T, extra string) *spec.Experiment {
	return parseExperiment(t, `experiment "rubis-it" {
		benchmark rubis; platform emulab; appserver jonas;
		`+extra+`
	}`)
}

func TestModelFactory(t *testing.T) {
	cases := []struct {
		src      string
		wr       float64
		wantName string
	}{
		{`experiment "a" { benchmark rubis; platform emulab; appserver jonas; workload { users 1; } }`, 15, "rubis/jonas/w=15%"},
		{`experiment "b" { benchmark rubis; platform warp; appserver weblogic; workload { users 1; } }`, 0, "rubis/weblogic/w=0%"},
		{`experiment "c" { benchmark rubbos; platform emulab; mix read-only; workload { users 1; } }`, 0, "rubbos/read-only"},
		{`experiment "d" { benchmark rubbos; platform emulab; workload { users 1; } }`, 0, "rubbos/submission/w=15%"},
		{`experiment "e" { benchmark tpcapp; platform rohan; workload { users 1; } }`, 0, "tpcapp"},
	}
	for _, c := range cases {
		e := parseExperiment(t, c.src)
		m, err := Model(e, c.wr)
		if err != nil {
			t.Errorf("%s: %v", c.wantName, err)
			continue
		}
		if m.Name() != c.wantName {
			t.Errorf("model name = %q, want %q", m.Name(), c.wantName)
		}
	}
}

func TestModelThinkTimeOverride(t *testing.T) {
	e := rubisExperiment(t, `workload { users 1; thinktime 3s; }`)
	m, err := Model(e, 15)
	if err != nil {
		t.Fatal(err)
	}
	if m.ThinkTime() != 3 {
		t.Fatalf("think = %g, want 3", m.ThinkTime())
	}
}

func TestRunTrialBaselineLightLoad(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 1, DB: 1}, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if !res.Completed {
		t.Fatalf("light-load trial failed: %s", res.FailReason)
	}
	// 100 users, ~7s think: unsaturated RT should be well under 200 ms.
	if res.AvgRTms <= 0 || res.AvgRTms > 200 {
		t.Fatalf("avg RT = %.1f ms, want small", res.AvgRTms)
	}
	// Closed-loop law: X ≈ N/(Z+R) ≈ 14 req/s.
	if res.Throughput < 12 || res.Throughput > 16 {
		t.Fatalf("throughput = %.1f req/s, want ≈14", res.Throughput)
	}
	if res.P90ms < res.P50ms || res.MaxRTms < res.P99ms {
		t.Fatalf("percentile ordering broken: %+v", res)
	}
	if res.TierCPU["app"] <= res.TierCPU["web"] {
		t.Fatalf("app tier should out-consume web: %+v", res.TierCPU)
	}
	if res.CollectedBytes == 0 {
		t.Fatalf("no monitoring data collected")
	}
}

// TestAppTierIsRUBiSBottleneck reproduces the paper's §IV.A finding: at
// the baseline saturation point the application server pins its CPU
// while web and db stay low (Figures 1–2).
func TestAppTierIsRUBiSBottleneck(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 250; writeratio 0; }`)
	out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 1, DB: 1}, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := out.Result.TierCPU
	if cpu["app"] < 80 {
		t.Fatalf("app CPU = %.1f%%, expected saturation at 250 users / 0%% writes", cpu["app"])
	}
	if cpu["web"] > 40 || cpu["db"] > 60 {
		t.Fatalf("web/db unexpectedly loaded: %+v", cpu)
	}
}

// TestFigure1Shape reproduces the two Figure 1 trends: response time
// grows with users and falls as the write ratio rises (high write ratio
// means less app-tier work).
func TestFigure1Shape(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 50; writeratio 0; }`)
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	rt := func(users int, wr float64) float64 {
		out, err := r.RunTrialAt(e, topo, users, wr)
		if err != nil {
			t.Fatal(err)
		}
		return out.Result.AvgRTms
	}
	low := rt(50, 0)
	high := rt(250, 0)
	if high < low*3 {
		t.Fatalf("RT should blow up toward 250 users at w=0: %.1f -> %.1f ms", low, high)
	}
	heavyWrites := rt(250, 90)
	if heavyWrites > high/3 {
		t.Fatalf("90%% writes should relieve the app tier: %.1f vs %.1f ms", heavyWrites, high)
	}
}

// TestSessionCapFailsOverloadedTrials reproduces Table 7's missing
// squares: a 1-2-1 deployment (2×350 sessions) cannot complete a trial
// above 700 users.
func TestSessionCapFailsOverloadedTrials(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	topo := spec.Topology{Web: 1, App: 2, DB: 1}
	ok, err := r.RunTrialAt(e, topo, 700, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Result.Completed {
		t.Fatalf("1-2-1 at 700 users should complete: %s", ok.Result.FailReason)
	}
	fail, err := r.RunTrialAt(e, topo, 800, 15)
	if err != nil {
		t.Fatal(err)
	}
	if fail.Result.Completed {
		t.Fatalf("1-2-1 at 800 users should fail to complete (paper Table 7)")
	}
	// Failed trials still carry response times for the admitted sessions.
	if fail.Result.AvgRTms <= 0 {
		t.Fatalf("failed trial should still record admitted-session RT")
	}
}

func TestRunExperimentSweepStoresGrid(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `
		topologies 1-1-1, 1-2-1;
		workload { users 50 to 150 step 50; writeratio 15; }`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	if got := r.Store().Len(); got != 6 {
		t.Fatalf("stored %d results, want 6", got)
	}
	pts := r.Store().RTvsUsers("rubis-it", "1-1-1", 15)
	if len(pts) != 3 {
		t.Fatalf("series = %v", pts)
	}
	// Monotone growth into saturation.
	if !(pts[0].Y <= pts[1].Y && pts[1].Y <= pts[2].Y) {
		t.Fatalf("RT not monotone: %v", pts)
	}
}

func TestTrialDeterminism(t *testing.T) {
	r1, r2 := testRunner(t), testRunner(t)
	e := rubisExperiment(t, `workload { users 80; writeratio 15; }`)
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	a, err := r1.RunTrialAt(e, topo, 80, 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.RunTrialAt(e, topo, 80, 15)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.AvgRTms != b.Result.AvgRTms || a.Result.Requests != b.Result.Requests {
		t.Fatalf("trials with identical seeds diverged: %+v vs %+v", a.Result, b.Result)
	}
}

func TestRunTrialValidation(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 10; writeratio 15; }`)
	if _, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 1, DB: 1}, 0, 15); err == nil {
		t.Fatalf("zero users should be rejected")
	}
}

func TestOnTrialCallback(t *testing.T) {
	r := testRunner(t)
	var seen []store.Result
	r.OnTrial = func(res store.Result) { seen = append(seen, res) }
	e := rubisExperiment(t, `workload { users 50; writeratio 15; }`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("callback fired %d times", len(seen))
	}
}

// TestFaultInjectionErrorSpike fails one of two app servers for the
// middle third of the run period and checks that errors appear only
// because of the outage and that the survivor carries more load.
func TestFaultInjectionErrorSpike(t *testing.T) {
	r := testRunner(t)
	healthy := rubisExperiment(t, `
		topology { web 1; app 2; db 1; }
		workload { users 300; writeratio 15; }`)
	out, err := r.RunTrialAt(healthy, spec.Topology{Web: 1, App: 2, DB: 1}, 300, 15)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Errors != 0 {
		t.Fatalf("healthy run has %d errors", out.Result.Errors)
	}

	faulty := rubisExperiment(t, `
		topology { web 1; app 2; db 1; }
		workload { users 300; writeratio 15; }
		faults { JONAS1 at 100s for 100s; }`)
	out2, err := r.RunTrialAt(faulty, spec.Topology{Web: 1, App: 2, DB: 1}, 300, 15)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Result.Errors == 0 {
		t.Fatalf("fault injection produced no errors")
	}
	// Round-robin keeps routing to the dead server, so roughly half the
	// requests in the outage window fail.
	rate := out2.Result.ErrorRate()
	if rate < 0.05 || rate > 0.4 {
		t.Fatalf("error rate = %.3f, want a visible spike", rate)
	}
}

func TestFaultOnUnknownRoleRejected(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `
		workload { users 50; writeratio 15; }
		faults { JONAS9 at 10s for 10s; }`)
	if _, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 1, DB: 1}, 50, 15); err == nil {
		t.Fatalf("fault on absent role should error")
	}
}

// TestReplicatedTrialAggregates checks the repeat clause: replicas are
// aggregated with confidence intervals and independent seeds.
func TestReplicatedTrialAggregates(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `
		workload { users 150; writeratio 15; }
		repeat 3;`)
	if e.Repeat != 3 {
		t.Fatalf("repeat = %d", e.Repeat)
	}
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	res, ok := r.Store().Get(store.Key{
		Experiment: "rubis-it", Topology: "1-1-1", Users: 150, WriteRatioPct: 15,
	})
	if !ok {
		t.Fatal("aggregate result missing")
	}
	if res.Replicas != 3 {
		t.Fatalf("replicas = %d", res.Replicas)
	}
	if res.AvgRTCI95ms <= 0 {
		t.Fatalf("CI should be positive across distinct seeds: %g", res.AvgRTCI95ms)
	}
	if res.AvgRTCI95ms > res.AvgRTms {
		t.Fatalf("CI %.2f implausibly wide vs mean %.2f", res.AvgRTCI95ms, res.AvgRTms)
	}
	if !res.Completed || res.Requests == 0 {
		t.Fatalf("aggregate bookkeeping wrong: %+v", res)
	}
}

func TestRepeatValidation(t *testing.T) {
	_, err := spec.Parse(`experiment "x" {
		benchmark rubis; platform emulab;
		workload { users 1; }
		repeat 500;
	}`)
	if err == nil {
		t.Fatalf("repeat 500 should be rejected")
	}
}

// TestPerInteractionBreakdown verifies the client emulator's per-state
// statistics: every RUBiS interaction appears, and the heavyweight pages
// (AboutMe, searches) cost more than the trivial ones (Home).
func TestPerInteractionBreakdown(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 200; writeratio 15; }`)
	out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 1, DB: 1}, 200, 15)
	if err != nil {
		t.Fatal(err)
	}
	per := out.Result.PerInteraction
	if len(per) < 20 {
		t.Fatalf("per-interaction stats cover %d states, want most of 26", len(per))
	}
	about, okA := per["AboutMe"]
	home, okH := per["Home"]
	if !okA || !okH {
		t.Fatalf("key interactions missing: %v", per)
	}
	if about <= home {
		t.Fatalf("AboutMe (%.1f ms) should cost more than Home (%.1f ms)", about, home)
	}
}

// TestKneeSearchFindsSaturation locates the 1-2-1 knee by bisection and
// checks it against the ≈250-users-per-app-server calibration.
func TestKneeSearchFindsSaturation(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	res, err := r.KneeSearch(e, spec.Topology{Web: 1, App: 2, DB: 1}, 15, 1000, 100, 1500, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users < 400 || res.Users > 800 {
		t.Fatalf("1-2-1 knee at %d users, want ≈500-700", res.Users)
	}
	if res.ViolationUsers <= res.Users {
		t.Fatalf("violation bound %d should exceed knee %d", res.ViolationUsers, res.Users)
	}
	// Bisection must be cheap: log2(1400/100) ≈ 4 probes + 2 endpoints.
	if res.Trials > 8 {
		t.Fatalf("search spent %d trials, want <= 8", res.Trials)
	}
	if len(res.Probes) != res.Trials {
		t.Fatalf("probe log inconsistent")
	}
}

func TestKneeSearchValidation(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	if _, err := r.KneeSearch(e, topo, 15, 500, 0, 100, 50); err == nil {
		t.Errorf("lo=0 accepted")
	}
	if _, err := r.KneeSearch(e, topo, 15, 500, 200, 100, 50); err == nil {
		t.Errorf("hi<lo accepted")
	}
	if _, err := r.KneeSearch(e, topo, 15, 0, 100, 200, 50); err == nil {
		t.Errorf("zero SLO accepted")
	}
	// Lower bound already saturated: 1-1-1 at 600 users.
	if _, err := r.KneeSearch(e, topo, 15, 100, 600, 900, 100); err == nil {
		t.Errorf("violating lower bound accepted")
	}
}

// TestKneeSearchCompliantRange reports hi when the whole range meets the
// SLO.
func TestKneeSearchCompliantRange(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	res, err := r.KneeSearch(e, spec.Topology{Web: 1, App: 4, DB: 1}, 15, 2000, 100, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != 300 || res.ViolationUsers != 0 {
		t.Fatalf("compliant range should report hi: %+v", res)
	}
	if res.Trials != 2 {
		t.Fatalf("compliant range should cost 2 probes, took %d", res.Trials)
	}
}

// TestParallelSweepMatchesSequential runs the same grid sequentially and
// with four workers; identical seeds must produce identical results, and
// the concurrent path must be race-free (run under -race in CI).
func TestParallelSweepMatchesSequential(t *testing.T) {
	grid := `
		topologies 1-1-1, 1-2-1, 1-2-2, 1-3-1;
		workload { users 100 to 200 step 100; writeratio 15; }`
	seq := testRunner(t)
	if err := seq.RunExperiment(rubisExperiment(t, grid)); err != nil {
		t.Fatal(err)
	}
	par := testRunner(t)
	par.Parallel = 4
	if err := par.RunExperiment(rubisExperiment(t, grid)); err != nil {
		t.Fatal(err)
	}
	if seq.Store().Len() != par.Store().Len() {
		t.Fatalf("result counts differ: %d vs %d", seq.Store().Len(), par.Store().Len())
	}
	for _, r := range seq.Store().All() {
		p, ok := par.Store().Get(r.Key)
		if !ok {
			t.Fatalf("parallel run missing %s", r.Key)
		}
		if p.AvgRTms != r.AvgRTms || p.Requests != r.Requests {
			t.Fatalf("parallel result diverged at %s: %.3f/%d vs %.3f/%d",
				r.Key, p.AvgRTms, p.Requests, r.AvgRTms, r.Requests)
		}
	}
}

// TestParallelCappedByClusterSize verifies the fit cap: parallelism never
// exceeds what the platform's node count can host.
func TestParallelCappedByClusterSize(t *testing.T) {
	r := testRunner(t)
	r.Parallel = 1000 // absurd; must be capped internally
	e := parseExperiment(t, `experiment "cap-par" {
		benchmark rubis; platform warp; appserver weblogic;
		topologies 1-10-3, 1-12-3, 1-11-3;
		workload { users 100; writeratio 15; }
	}`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	if r.Store().Len() != 3 {
		t.Fatalf("results = %d", r.Store().Len())
	}
}

// TestArchiveWritesMonitorFiles checks the per-trial sysstat archive on
// both engines, and that the archived files add up to the trial's
// CollectedBytes, which the monitor counts without rendering them.
func TestArchiveWritesMonitorFiles(t *testing.T) {
	for _, engine := range []string{EngineDES, EngineFluid} {
		t.Run(engine, func(t *testing.T) {
			r := testRunner(t)
			r.ArchiveDir = t.TempDir()
			r.ScalingEngine = engine
			e := rubisExperiment(t, `workload { users 60; writeratio 15; }`)
			if err := r.RunExperiment(e); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(r.ArchiveDir, "rubis-it", "1-1-1", "u60_w15")
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("archive missing: %v", err)
			}
			// 4 machines (web, app, db, client), one .sar each.
			if len(entries) != 4 {
				t.Fatalf("archived files = %d, want 4", len(entries))
			}
			total := 0
			for _, ent := range entries {
				data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(string(data), "# sysstat") {
					t.Fatalf("archived file not sysstat format: %q", string(data)[:30])
				}
				// Round-trip through the sar parser.
				if _, err := monitor.ParseFile(string(data)); err != nil {
					t.Fatalf("archived file unparseable: %v", err)
				}
				total += len(data)
			}
			results := r.Store().All()
			if len(results) != 1 {
				t.Fatalf("stored results = %d, want 1", len(results))
			}
			if got := results[0].CollectedBytes; got != total {
				t.Fatalf("CollectedBytes = %d, archived .sar files total %d bytes", got, total)
			}
		})
	}
}

// TestTransientTrialTracksSchedule drives a surge schedule and checks the
// observed utilization and throughput follow the population.
func TestTransientTrialTracksSchedule(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	phases, err := r.RunTransientAt(e, spec.Topology{Web: 1, App: 2, DB: 1},
		[]PopulationPhase{
			{Users: 100, DurationSec: 200},
			{Users: 400, DurationSec: 200},
			{Users: 100, DurationSec: 200},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[1].Throughput < phases[0].Throughput*2.5 {
		t.Fatalf("surge throughput %.1f not ≈4x base %.1f",
			phases[1].Throughput, phases[0].Throughput)
	}
	if phases[1].AppCPU <= phases[0].AppCPU {
		t.Fatalf("surge should raise app CPU: %.1f -> %.1f",
			phases[0].AppCPU, phases[1].AppCPU)
	}
	// Recovery: the last phase should settle back near the first.
	if phases[2].Throughput > phases[0].Throughput*1.5 {
		t.Fatalf("post-surge throughput did not settle: %.1f vs %.1f",
			phases[2].Throughput, phases[0].Throughput)
	}
}

func TestTransientTrialValidation(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	if _, err := r.RunTransientAt(e, topo, nil); err == nil {
		t.Errorf("empty schedule accepted")
	}
	if _, err := r.RunTransientAt(e, topo, []PopulationPhase{{Users: 10, DurationSec: 0}}); err == nil {
		t.Errorf("zero duration accepted")
	}
}
