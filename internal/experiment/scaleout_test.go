package experiment

import (
	"testing"

	"elba/internal/bottleneck"
	"elba/internal/spec"
)

// TestScaleOutGrowsAppTierFirst reproduces the paper's §V.B storyline in
// miniature: as load rises on RUBiS the controller must diagnose the app
// tier and add application servers, not database servers.
func TestScaleOutGrowsAppTierFirst(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	steps, err := r.ScaleOut(e, ScaleOutOptions{
		LoadStep: 150,
		MaxUsers: 750,
		MaxApp:   4,
		MaxDB:    2,
		SLOms:    600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatalf("no steps recorded")
	}
	var appAdds, dbAdds int
	for _, s := range steps {
		switch s.Action {
		case ActionAddAppServer:
			appAdds++
		case ActionAddDBServer:
			dbAdds++
		}
	}
	if appAdds == 0 {
		t.Fatalf("controller never added an app server:\n%+v", steps)
	}
	if dbAdds > appAdds {
		t.Fatalf("controller favoured db over app (%d vs %d), contrary to the RUBiS bottleneck",
			dbAdds, appAdds)
	}
	last := steps[len(steps)-1]
	if last.Action != ActionStop {
		t.Fatalf("loop should end with a stop action: %+v", last)
	}
	// Each step's topology must be reachable from the previous by at most
	// one server addition.
	for i := 1; i < len(steps); i++ {
		da := steps[i].Topology.App - steps[i-1].Topology.App
		dd := steps[i].Topology.DB - steps[i-1].Topology.DB
		if da < 0 || dd < 0 || da+dd > 1 {
			t.Fatalf("topology jumped: %s -> %s", steps[i-1].Topology, steps[i].Topology)
		}
	}
}

// TestDBBottleneckAt1700Users reproduces the paper's Figure 7/8 knee: at
// 1700 users with 8 app servers, one database server saturates, and
// adding a second database server removes the bottleneck.
func TestDBBottleneckAt1700Users(t *testing.T) {
	if testing.Short() {
		t.Skip("1700-user trials are slow in -short mode")
	}
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)

	oneDB, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 8, DB: 1}, 1700, 15)
	if err != nil {
		t.Fatal(err)
	}
	twoDB, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 8, DB: 2}, 1700, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §V.B: ~40% response-time difference between 1-8-1 and 1-8-2
	// at 1700 users.
	impr := bottleneck.Improvement(oneDB.Result.AvgRTms, twoDB.Result.AvgRTms)
	if impr < 20 {
		t.Fatalf("second DB should relieve 1700 users: 1-8-1 %.0f ms vs 1-8-2 %.0f ms (%.1f%%)",
			oneDB.Result.AvgRTms, twoDB.Result.AvgRTms, impr)
	}
	// The single DB must be the diagnosed bottleneck.
	v := bottleneck.Detect(oneDB.Result, bottleneck.DefaultThresholds)
	if v.Tier != "db" {
		t.Fatalf("1-8-1@1700 bottleneck = %q (%s), want db", v.Tier, v.Reason)
	}
	// With two DBs the db tier is no longer saturated.
	if twoDB.Result.TierCPU["db"] > 90 {
		t.Fatalf("1-8-2 db CPU = %.1f%%, should be relieved", twoDB.Result.TierCPU["db"])
	}
}

// TestTable6ImprovementShape reproduces Table 6's contrast at 500 users:
// adding an app server to 1-1-1 yields a large improvement; adding a
// database server yields a small one.
func TestTable6ImprovementShape(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	rt := func(app, db int) float64 {
		out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: app, DB: db}, 500, 15)
		if err != nil {
			t.Fatal(err)
		}
		// Failed trials (session cap) still report admitted-session RT,
		// matching how the paper could measure 1-1-1 at 500 users.
		return out.Result.AvgRTms
	}
	base := rt(1, 1)
	addApp := bottleneck.Improvement(base, rt(2, 1))
	addDB := bottleneck.Improvement(base, rt(1, 2))
	if addApp < 60 {
		t.Fatalf("app-server addition improved only %.1f%%, want large (paper: 84.3%%)", addApp)
	}
	if addDB > addApp/2 {
		t.Fatalf("db-server addition improved %.1f%%, should be far below app's %.1f%%", addDB, addApp)
	}
}

func TestScaleOutDefaultsApplied(t *testing.T) {
	r := testRunner(t)
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	// Bound tightly so the defaulted run stays quick: only MaxUsers set.
	steps, err := r.ScaleOut(e, ScaleOutOptions{MaxUsers: 250, LoadStep: 250, SLOms: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatalf("no steps")
	}
	if steps[0].Topology != (spec.Topology{Web: 1, App: 1, DB: 1}) {
		t.Fatalf("default start topology wrong: %v", steps[0].Topology)
	}
}
