package core

import (
	"math"
	"testing"

	"elba/internal/spec"
)

func TestPredictMatchesPaperKnees(t *testing.T) {
	c := fastCharacterizer(t)
	doc, err := spec.Parse(RubisBaselineJOnASTBL)
	if err != nil {
		t.Fatal(err)
	}
	e := doc.Experiments[0]

	// Below N* throughput grows almost linearly with the population;
	// well past it, it pins at the bottleneck's capacity. The paper puts
	// the 1-1-1 knee near 250 users and the 1-8-1 one near 1700.
	knee := func(topo spec.Topology, below, above int, tier string) {
		t.Helper()
		lo, err := c.Predict(e, topo, 15, below)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := c.Predict(e, topo, 15, above)
		if err != nil {
			t.Fatal(err)
		}
		if b := busiestTier(lo); b != tier {
			t.Fatalf("%s bottleneck = %q, want %s", topo, b, tier)
		}
		if lo.TierUtilization[tier] > 95 || hi.TierUtilization[tier] < 99 {
			t.Fatalf("%s %s utilization %.1f%% at %d users, %.1f%% at %d: knee not between them",
				topo, tier, lo.TierUtilization[tier], below, hi.TierUtilization[tier], above)
		}
	}
	knee(spec.Topology{Web: 1, App: 1, DB: 1}, 200, 320, "app")
	knee(spec.Topology{Web: 1, App: 8, DB: 1}, 1400, 2200, "db")
}

// busiestTier returns the tier a prediction loads most: the asymptotic
// bottleneck, since every tier's utilization is throughput times its
// per-server demand.
func busiestTier(p Prediction) string {
	best := ""
	for _, tier := range []string{"web", "app", "db"} {
		if best == "" || p.TierUtilization[tier] > p.TierUtilization[best] {
			best = tier
		}
	}
	return best
}

// TestPredictionAgreesWithObservationBelowSaturation is the paper's §I
// claim made executable: below the knee the analytical model and the
// observed system agree; the observation infrastructure can therefore
// validate (or refute) a model.
func TestPredictionAgreesWithObservationBelowSaturation(t *testing.T) {
	c := fastCharacterizer(t)
	err := c.RunTBL(`experiment "validate" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := spec.Parse(`experiment "validate" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100; writeratio 15; }
	}`)
	pred, err := c.Predict(doc.Experiments[0], spec.Topology{Web: 1, App: 1, DB: 1}, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := c.Results().Get(keyFor("validate", "1-1-1", 100, 15))
	if !ok {
		t.Fatal("observation missing")
	}
	// Throughput: both obey the closed-loop law; expect close agreement.
	if rel := math.Abs(pred.Throughput-obs.Throughput) / obs.Throughput; rel > 0.1 {
		t.Fatalf("throughput: predicted %.2f vs observed %.2f (%.0f%% off)",
			pred.Throughput, obs.Throughput, rel*100)
	}
	// Response time: agree within a factor ~2 at moderate load (MVA is
	// exact for exponential FCFS single-server; our multi-visit path and
	// monitor windows differ slightly).
	ratio := pred.ResponseTimeMS / obs.AvgRTms
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("response time: predicted %.1f ms vs observed %.1f ms",
			pred.ResponseTimeMS, obs.AvgRTms)
	}
	// Utilization of the bottleneck tier agrees.
	if d := math.Abs(pred.TierUtilization["app"] - obs.TierCPU["app"]); d > 15 {
		t.Fatalf("app utilization: predicted %.1f%% vs observed %.1f%%",
			pred.TierUtilization["app"], obs.TierCPU["app"])
	}
}

// TestPredictionMissesSessionCapFailure shows the flip side: MVA predicts
// a working system at 800 users on 1-2-1 where the observed trial fails —
// the paper's argument for observation over pure modelling.
func TestPredictionMissesSessionCapFailure(t *testing.T) {
	c := fastCharacterizer(t)
	tbl := `experiment "gap" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-2-1;
		workload { users 800; writeratio 15; }
	}`
	if err := c.RunTBL(tbl); err != nil {
		t.Fatal(err)
	}
	doc, _ := spec.Parse(tbl)
	pred, err := c.Predict(doc.Experiments[0], spec.Topology{Web: 1, App: 2, DB: 1}, 15, 800)
	if err != nil {
		t.Fatal(err)
	}
	// The model sees a saturated-but-functioning system.
	if pred.Throughput <= 0 {
		t.Fatalf("model should predict positive throughput")
	}
	obs, ok := c.Results().Get(keyFor("gap", "1-2-1", 800, 15))
	if !ok {
		t.Fatal("observation missing")
	}
	if obs.Completed {
		t.Fatalf("observed trial should fail at 800 users on 1-2-1")
	}
}

func TestPredictValidation(t *testing.T) {
	c := fastCharacterizer(t)
	doc, _ := spec.Parse(RubisBaselineJOnASTBL)
	e := doc.Experiments[0]
	if _, err := c.Predict(e, spec.Topology{Web: 1, App: 1, DB: 1}, 15, 0); err == nil {
		t.Fatalf("zero users should be rejected")
	}
	bad := *e
	bad.Allocate = map[string]string{"db": "hyper-end"}
	if _, err := c.Predict(&bad, spec.Topology{Web: 1, App: 1, DB: 1}, 15, 10); err == nil {
		t.Fatalf("unknown node type should be rejected")
	}
}
