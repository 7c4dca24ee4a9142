package bench

import (
	"math"
	"math/rand/v2"
	"testing"

	"elba/internal/sim"
)

func testProfile(t *testing.T, w float64) *Profile {
	t.Helper()
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{4, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := m.Reweight(w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile("test", rw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileBasics(t *testing.T) {
	p := testProfile(t, 0.25)
	if p.Name() != "test" || p.ThinkTime() != 1.5 {
		t.Fatalf("profile metadata wrong")
	}
	if len(p.Interactions()) != 2 {
		t.Fatalf("interactions = %d", len(p.Interactions()))
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := NewProfile("x", nil, 1); err == nil {
		t.Errorf("nil matrix should error")
	}
	m, _ := NewTransitionMatrix(twoStateStates(), [][]float64{{1, 1}, {1, 1}})
	if _, err := NewProfile("x", m, -1); err == nil {
		t.Errorf("negative think should error")
	}
}

func TestProfileSessionWriteFraction(t *testing.T) {
	p := testProfile(t, 0.25)
	rng := rand.New(rand.NewPCG(42, 42))
	sess, ixs := p.NewSession(rng), p.Interactions()
	writes, n := 0, 50000
	for i := 0; i < n; i++ {
		if ixs[sess.Next(rng)].Write {
			writes++
		}
	}
	got := float64(writes) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("session write fraction = %g, want 0.25", got)
	}
}

func TestProfileMeanDemands(t *testing.T) {
	p := testProfile(t, 0.5)
	// Stationary is (0.5, 0.5) by symmetry of the reweighted matrix.
	web, app, db := p.MeanDemands()
	if math.Abs(app-(0.03+0.005)/2) > 1e-9 {
		t.Fatalf("mean app demand = %g", app)
	}
	if math.Abs(db-(0.001+0.002)/2) > 1e-9 {
		t.Fatalf("mean db demand = %g", db)
	}
	if math.Abs(web-0.001) > 1e-9 {
		t.Fatalf("mean web demand = %g", web)
	}
}

func TestCalibrateHitsTargets(t *testing.T) {
	states := []sim.Interaction{
		{Name: "r1", AppDemand: 1, DBDemand: 2, WebDemand: 1},
		{Name: "r2", AppDemand: 3, DBDemand: 1, WebDemand: 1},
		{Name: "w1", Write: true, AppDemand: 2, DBDemand: 4, WebDemand: 1},
	}
	m, err := NewTransitionMatrix(states, [][]float64{
		{1, 1, 1}, {1, 1, 1}, {1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := DemandTargets{
		Web: 0.002, ReadApp: 0.030, WriteApp: 0.005,
		ReadDB: 0.0008, WriteDB: 0.0016,
	}
	if err := Calibrate(m, targets); err != nil {
		t.Fatal(err)
	}
	pi := m.Stationary()
	var readMass, writeMass, readApp, writeApp, readDB, writeDB, web float64
	for j, s := range m.States() {
		web += pi[j] * s.WebDemand
		if s.Write {
			writeMass += pi[j]
			writeApp += pi[j] * s.AppDemand
			writeDB += pi[j] * s.DBDemand
		} else {
			readMass += pi[j]
			readApp += pi[j] * s.AppDemand
			readDB += pi[j] * s.DBDemand
		}
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	check("read app", readApp/readMass, targets.ReadApp)
	check("write app", writeApp/writeMass, targets.WriteApp)
	check("read db", readDB/readMass, targets.ReadDB)
	check("write db", writeDB/writeMass, targets.WriteDB)
	check("web", web, targets.Web)
	// Relative structure within a class must be preserved: r2 app demand
	// stays 3× r1.
	if math.Abs(m.States()[1].AppDemand/m.States()[0].AppDemand-3) > 1e-9 {
		t.Errorf("calibration destroyed relative structure")
	}
}

func TestCalibrateSkipsMasslessClass(t *testing.T) {
	// No write states at all: write targets are unreachable but also
	// irrelevant, so calibration must succeed and leave reads on target.
	states := []sim.Interaction{{Name: "r", AppDemand: 1, DBDemand: 1, WebDemand: 1}}
	m, err := NewTransitionMatrix(states, [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	err = Calibrate(m, DemandTargets{Web: 0.001, ReadApp: 0.01, WriteApp: 0.01, ReadDB: 0.001, WriteDB: 0.001})
	if err != nil {
		t.Fatalf("massless write class should be skipped: %v", err)
	}
	if got := m.States()[0].AppDemand; math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("read app demand = %g, want 0.01", got)
	}
}

func TestCalibrateErrorsOnZeroDemandClass(t *testing.T) {
	// A write state with stationary mass but zero demand cannot be scaled
	// to a non-zero target.
	states := []sim.Interaction{
		{Name: "r", AppDemand: 1, DBDemand: 1, WebDemand: 1},
		{Name: "w", Write: true, AppDemand: 0, DBDemand: 0, WebDemand: 1},
	}
	m, err := NewTransitionMatrix(states, [][]float64{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	err = Calibrate(m, DemandTargets{Web: 0.001, ReadApp: 0.01, WriteApp: 0.01, ReadDB: 0.001, WriteDB: 0.001})
	if err == nil {
		t.Fatalf("zero-demand class with non-zero target should error")
	}
}
