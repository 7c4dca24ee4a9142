package mva

import (
	"math"
	"testing"
	"testing/quick"

	"elba/internal/bench/rubis"
	"elba/internal/spec"
)

// EmulabSpeeds are the paper's Emulab allocation: 3 GHz single-CPU web
// and app nodes, a 600 MHz single-CPU database node (§IV.A).
var EmulabSpeeds = TierSpeeds{
	WebSpeed: 1.0, AppSpeed: 1.0, DBSpeed: 0.2,
	WebCores: 1, AppCores: 1, DBCores: 1,
}

func TestSingleStationMatchesClosedForm(t *testing.T) {
	// One M/M/1 station, no think time: exact MVA gives
	// R(N) = N·D (all customers queue at the single station).
	nw, err := NewNetwork(0, []Station{{Name: "s", Demand: 0.1, Servers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 10} {
		r, err := nw.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n) * 0.1
		if math.Abs(r.ResponseTime-want) > 1e-12 {
			t.Errorf("R(%d) = %g, want %g", n, r.ResponseTime, want)
		}
		if math.Abs(r.Throughput-float64(n)/want) > 1e-12 {
			t.Errorf("X(%d) = %g", n, r.Throughput)
		}
	}
}

func TestThinkTimeDelays(t *testing.T) {
	// With think time Z and tiny demand, X ≈ N/Z and utilization stays
	// low.
	nw, err := NewNetwork(10, []Station{{Name: "s", Demand: 0.001, Servers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.Solve(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput-5.0) > 0.2 {
		t.Fatalf("X = %g, want ≈5", r.Throughput)
	}
	if r.Utilization[0] > 0.02 {
		t.Fatalf("util = %g", r.Utilization[0])
	}
}

func TestAsymptoticThroughputBound(t *testing.T) {
	// At high population, X → servers / demand of the bottleneck.
	nw, err := NewNetwork(1, []Station{
		{Name: "a", Demand: 0.05, Servers: 1},
		{Name: "b", Demand: 0.01, Servers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.Solve(200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput-20) > 0.5 {
		t.Fatalf("saturated X = %g, want ≈20", r.Throughput)
	}
	if r.Utilization[0] < 0.99 {
		t.Fatalf("bottleneck util = %g", r.Utilization[0])
	}
	if nw.BottleneckStation() != 0 {
		t.Fatalf("bottleneck index = %d", nw.BottleneckStation())
	}
}

func TestSolveRangeMonotone(t *testing.T) {
	nw, err := NewNetwork(5, []Station{
		{Name: "a", Demand: 0.03, Servers: 2},
		{Name: "b", Demand: 0.004, Servers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := nw.SolveRange(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 300 {
		t.Fatalf("range = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].ResponseTime < rs[i-1].ResponseTime-1e-9 {
			t.Fatalf("R not monotone at %d", i)
		}
		if rs[i].Throughput < rs[i-1].Throughput-1e-6 {
			t.Fatalf("X decreased at %d: %g -> %g", i, rs[i-1].Throughput, rs[i].Throughput)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewNetwork(-1, []Station{{Demand: 1, Servers: 1}}); err == nil {
		t.Errorf("negative think accepted")
	}
	if _, err := NewNetwork(1, nil); err == nil {
		t.Errorf("empty network accepted")
	}
	if _, err := NewNetwork(1, []Station{{Demand: -1, Servers: 1}}); err == nil {
		t.Errorf("negative demand accepted")
	}
	if _, err := NewNetwork(1, []Station{{Demand: 1, Servers: 0}}); err == nil {
		t.Errorf("zero servers accepted")
	}
	nw, _ := NewNetwork(1, []Station{{Demand: 1, Servers: 1}})
	if _, err := nw.Solve(0); err == nil {
		t.Errorf("zero population accepted")
	}
}

func TestSaturationPopulation(t *testing.T) {
	// Z=7, D_app=0.03: N* ≈ (7 + 0.03)/0.03 ≈ 234 — the design's
	// ≈250-users-per-app-server rule.
	nw, err := NewNetwork(7, []Station{{Name: "app", Demand: 0.03, Servers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := nw.SaturationPopulation(); math.Abs(n-234.3) > 1 {
		t.Fatalf("N* = %g, want ≈234", n)
	}
	// A network without demand never saturates.
	nw2, _ := NewNetwork(7, []Station{{Name: "z", Demand: 0, Servers: 1}})
	if !math.IsInf(nw2.SaturationPopulation(), 1) {
		t.Fatalf("demand-free N* should be infinite")
	}
}

// TestFromProfileMatchesPaperKnees builds the analytical model of the
// paper's configurations and checks the headline knees.
func TestFromProfileMatchesPaperKnees(t *testing.T) {
	p, err := rubis.Bidding(rubis.JOnAS)
	if err != nil {
		t.Fatal(err)
	}
	// 1-1-1 on Emulab: app bottleneck near 250 users.
	nw, err := FromProfile(p, spec.Topology{Web: 1, App: 1, DB: 1}, EmulabSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	if nw.BottleneckStation() != 1 {
		t.Fatalf("1-1-1 bottleneck should be the app tier")
	}
	if n := nw.SaturationPopulation(); n < 220 || n > 280 {
		t.Fatalf("1-1-1 N* = %g, want ≈250", n)
	}
	// 1-8-1: the 600 MHz DB becomes the bottleneck near 1700 users.
	nw81, err := FromProfile(p, spec.Topology{Web: 1, App: 8, DB: 1}, EmulabSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	if nw81.BottleneckStation() != 2 {
		t.Fatalf("1-8-1 bottleneck should be the db tier")
	}
	if n := nw81.SaturationPopulation(); n < 1500 || n > 1900 {
		t.Fatalf("1-8-1 N* = %g, want ≈1700", n)
	}
	// 1-12-2: RAIDb-1 pushes the 2-DB knee to ≈2900, not 3400.
	nw122, err := FromProfile(p, spec.Topology{Web: 1, App: 12, DB: 2}, EmulabSpeeds)
	if err != nil {
		t.Fatal(err)
	}
	if n := nw122.SaturationPopulation(); n < 2600 || n > 3200 {
		t.Fatalf("1-12-2 N* = %g, want ≈2900 (RAIDb-1 sub-linearity)", n)
	}
}

func TestFromProfileValidation(t *testing.T) {
	p, err := rubis.Bidding(rubis.JOnAS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromProfile(p, spec.Topology{Web: 0, App: 1, DB: 1}, EmulabSpeeds); err == nil {
		t.Fatalf("invalid topology accepted")
	}
}

// Property: utilizations stay in [0,1] and, by Little's law, the
// customers in service (X·R) sum to ≈ the population minus thinkers.
func TestInvariantsProperty(t *testing.T) {
	f := func(d1, d2 uint16, nRaw uint8) bool {
		demand1 := 0.001 + float64(d1%1000)/10000
		demand2 := 0.001 + float64(d2%1000)/10000
		n := 1 + int(nRaw%100)
		nw, err := NewNetwork(1.0, []Station{
			{Name: "a", Demand: demand1, Servers: 1},
			{Name: "b", Demand: demand2, Servers: 2},
		})
		if err != nil {
			return false
		}
		r, err := nw.Solve(n)
		if err != nil {
			return false
		}
		for _, u := range r.Utilization {
			if u < 0 || u > 1.0000001 {
				return false
			}
		}
		inService := r.Throughput * r.ResponseTime
		thinkers := r.Throughput * 1.0
		total := inService + thinkers
		return math.Abs(total-float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SaturationPopulation estimates the knee population N* = (Z + D) / D_max
// from asymptotic bounds, where D is the total demand and D_max the
// per-request demand of the slowest station (per server).
func (nw *Network) SaturationPopulation() float64 {
	var total, dmax float64
	for _, s := range nw.stations {
		total += s.Demand
		eff := s.Demand / float64(s.Servers)
		if eff > dmax {
			dmax = eff
		}
	}
	if dmax == 0 {
		return math.Inf(1)
	}
	return (nw.think + total) / dmax
}

// BottleneckStation returns the index of the station with the highest
// per-server demand (the asymptotic bottleneck).
func (nw *Network) BottleneckStation() int {
	best, bestEff := -1, -1.0
	for i, s := range nw.stations {
		eff := s.Demand / float64(s.Servers)
		if eff > bestEff {
			best, bestEff = i, eff
		}
	}
	return best
}
