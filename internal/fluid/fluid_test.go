package fluid

import (
	"math"
	"testing"
)

// testConfig is a small three-tier system resembling the rubbos
// submission mix on the reference platform: ~7 s think time, CPU demands
// of a few milliseconds, one node per tier.
func testConfig(sessions int) Config {
	node := NodeSpec{Cores: 1, Speed: 1}
	return Config{
		Sessions: sessions,
		ThinkSec: 7,
		Web:      TierSpec{Name: "web", Nodes: []NodeSpec{node}},
		App:      TierSpec{Name: "app", Nodes: []NodeSpec{node}},
		DB:       TierSpec{Name: "db", Nodes: []NodeSpec{node}},
		Classes: []Class{
			{Name: "browse", Weight: 0.7, Web: 0.002, App: 0.005, DB: 0.008},
			{Name: "submit", Weight: 0.3, Web: 0.002, App: 0.006, DB: 0.012, Write: true},
		},
	}
}

func runWindow(t *testing.T, cfg Config, warm, run float64) Stats {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Advance(warm)
	a := s.Snapshot()
	s.Advance(warm + run)
	return s.StatsBetween(a, s.Snapshot())
}

// TestDeterminism: identical configs advanced through identical time
// boundaries produce bit-identical statistics — the solver draws no
// randomness and iterates no maps.
func TestDeterminism(t *testing.T) {
	boundaries := []float64{3.2, 17.0, 59.99, 123.456, 300}
	mk := func() []Stats {
		s, err := New(testConfig(400))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		prev := s.Snapshot()
		var out []Stats
		for _, b := range boundaries {
			s.Advance(b)
			snap := s.Snapshot()
			out = append(out, s.StatsBetween(prev, snap))
			prev = snap
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Requests != b[i].Requests ||
			a[i].P50ms != b[i].P50ms || a[i].P99ms != b[i].P99ms ||
			a[i].MeanRTms != b[i].MeanRTms || a[i].Errors != b[i].Errors {
			t.Fatalf("window %d: runs diverge: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestThroughputMonotone: steady-state throughput X(N) is non-decreasing
// in the population — the core property a knee search relies on.
func TestThroughputMonotone(t *testing.T) {
	prev := -1.0
	for _, n := range []int{1, 5, 25, 100, 250, 500, 1000, 2500, 5000, 20000} {
		st := runWindow(t, testConfig(n), 120, 300)
		x := st.Requests / st.DurationSec
		if x < prev-1e-9 {
			t.Fatalf("X(%d) = %.4f < previous %.4f: throughput not monotone", n, x, prev)
		}
		prev = x
	}
}

// TestSubSaturationFixedPoint: far below the knee the solver converges to
// the open-network fixed point X = N/(Z + R(X)), with R the analytic
// residence time including queueing waits.
func TestSubSaturationFixedPoint(t *testing.T) {
	cfg := testConfig(100)
	st := runWindow(t, cfg, 120, 600)
	s, _ := New(cfg)
	x := 100 / cfg.ThinkSec
	for i := 0; i < 100; i++ {
		r := 0.0
		for j := range s.tiers {
			r += s.tiers[j].residence(x)
		}
		x = 100 / (cfg.ThinkSec + r)
	}
	if got := st.Requests / st.DurationSec; math.Abs(got-x)/x > 0.005 {
		t.Fatalf("X(100) = %.4f, fixed point predicts %.4f (rel %.4f)", got, x, math.Abs(got-x)/x)
	}
}

// TestSaturationCapacity: far above the knee throughput pins at the
// bottleneck capacity and response time follows Little's law
// R = N/C − Z.
func TestSaturationCapacity(t *testing.T) {
	cfg := testConfig(20000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := math.Inf(1)
	for i := 0; i < numTiers; i++ {
		if c := s.tiers[i].cap; c < capacity {
			capacity = c
		}
	}
	// Long horizon so the backlog reaches equilibrium.
	s.Advance(2000)
	a := s.Snapshot()
	s.Advance(2600)
	st := s.StatsBetween(a, s.Snapshot())
	x := (st.Requests + st.Errors) / st.DurationSec // raw completion rate
	if rel := math.Abs(x-capacity) / capacity; rel > 0.02 {
		t.Fatalf("saturated X = %.2f, capacity %.2f (rel %.3f)", x, capacity, rel)
	}
	wantRT := 20000/capacity - cfg.ThinkSec
	gotRT := st.MeanRTms / 1000
	if rel := math.Abs(gotRT-wantRT) / wantRT; rel > 0.05 {
		t.Fatalf("saturated mean RT = %.2fs, Little predicts %.2fs (rel %.3f)", gotRT, wantRT, rel)
	}
}

// TestZeroPopulation: no sessions means no requests and no errors in any
// window, with zeroed response statistics.
func TestZeroPopulation(t *testing.T) {
	st := runWindow(t, testConfig(0), 60, 300)
	if st.Requests != 0 || st.Errors != 0 {
		t.Fatalf("zero population produced activity: %+v", st)
	}
	if st.P50ms != 0 || st.MeanRTms != 0 {
		t.Fatalf("zero population produced response times: %+v", st)
	}
}

// TestRefusedSessions: refused sessions reject at rate 1/Z each and
// contribute only errors.
func TestRefusedSessions(t *testing.T) {
	cfg := testConfig(0)
	cfg.Refused = 70
	st := runWindow(t, cfg, 60, 300)
	if st.Requests != 0 {
		t.Fatalf("refused sessions completed requests: %+v", st)
	}
	want := 70.0 / cfg.ThinkSec * 300
	if rel := math.Abs(st.Errors-want) / want; rel > 0.01 {
		t.Fatalf("rejections = %.1f, want ≈ %.1f", st.Errors, want)
	}
}

// TestRampUp: with a ramp window, early activity is lower than
// steady-state but the full population eventually enters.
func TestRampUp(t *testing.T) {
	cfg := testConfig(500)
	cfg.RampUpSec = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.qThink != 0 {
		t.Fatalf("ramped solver started with population present")
	}
	s.Advance(5)
	if s.entered <= 0 || s.entered >= 500 {
		t.Fatalf("mid-ramp entered = %.1f, want strictly inside (0, 500)", s.entered)
	}
	s.Advance(60)
	if math.Abs(s.entered-500) > 1e-6 {
		t.Fatalf("post-ramp entered = %.1f, want 500", s.entered)
	}
}

// TestTimeoutFraction: with a timeout far above any plausible response
// time, no requests time out below saturation; deep overload with a tight
// timeout converts completions into errors. The timed-out fraction is the
// share of a window's completions it does not count as successes.
func TestTimeoutFraction(t *testing.T) {
	timedOut := func(cfg Config, warm, run float64) (float64, Stats) {
		s, _ := New(cfg)
		s.Advance(warm)
		a := s.Snapshot()
		s.Advance(warm + run)
		b := s.Snapshot()
		st := s.StatsBetween(a, b)
		return 1 - st.Requests/(b.Done-a.Done), st
	}
	cfg := testConfig(100)
	cfg.TimeoutSec = 30
	if f, _ := timedOut(cfg, 120, 300); f != 0 {
		t.Fatalf("sub-knee timeout fraction = %g, want exactly 0", f)
	}
	over := testConfig(50000)
	over.TimeoutSec = 5
	f, ost := timedOut(over, 2000, 300)
	if f < 0.98 {
		t.Fatalf("deep overload with 5s timeout: fraction = %g, want ≈ 1", f)
	}
	if ost.Requests > ost.Errors {
		t.Fatalf("deep overload should be error-dominated: %+v", ost)
	}
}

// TestWriteBroadcastRaisesDBWork: replicating the database spreads reads
// but broadcasts writes, so per-node CPU work per request must account
// for the full write demand on every replica.
func TestWriteBroadcastRaisesDBWork(t *testing.T) {
	node := NodeSpec{Cores: 1, Speed: 1}
	cfg := testConfig(100)
	cfg.DB.Nodes = []NodeSpec{node, node}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// d=2: per-node work = (1-ww)·read/2 + ww·write.
	ww := 0.3
	want := (1-ww)*0.008/2 + ww*0.012
	if got := s.tiers[TierDB].cpuWorkPerReq; math.Abs(got-want) > 1e-12 {
		t.Fatalf("db per-node work = %g, want %g", got, want)
	}
	// Write latency includes the max-of-replicas factor H_2 = 1.5.
	wantLat := (1-ww)*0.008 + ww*0.012*1.5
	if got := s.tiers[TierDB].svcLatency; math.Abs(got-wantLat) > 1e-12 {
		t.Fatalf("db service latency = %g, want %g", got, wantLat)
	}
}

// TestBusyIntegralsConsistent: cumulative busy time equals completions ×
// per-request work for every leg, and utilization never exceeds the
// window duration per core.
func TestBusyIntegralsConsistent(t *testing.T) {
	cfg := testConfig(300)
	cfg.DB.DiskSec = 0.004
	cfg.DB.NetBytes = 600
	for i := range cfg.DB.Nodes {
		cfg.DB.Nodes[i].DiskRate = 1
		cfg.DB.Nodes[i].NetRate = 1e9
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(300)
	done := s.tiers[TierDB].done
	if done <= 0 {
		t.Fatal("no completions")
	}
	if got, want := s.NodeCPUBusy(TierDB), done*s.tiers[TierDB].cpuWorkPerReq; math.Abs(got-want) > 1e-9 {
		t.Fatalf("cpu busy %g, want %g", got, want)
	}
	if got := s.NodeDiskBusy(TierDB); got <= 0 {
		t.Fatal("disk busy not accumulated")
	}
	if got := s.NodeNetBusy(TierDB); got <= 0 {
		t.Fatal("net busy not accumulated")
	}
	if got := s.NodeDiskBusy(TierWeb); got != 0 {
		t.Fatalf("web tier has no disk but busy = %g", got)
	}
	if util := s.NodeCPUBusy(TierDB) / 300; util > 1 {
		t.Fatalf("cpu utilization %g exceeds 1 core-second/second", util)
	}
}

// TestPercentileOrdering: quantiles are ordered and bracket the mean
// sensibly for the mixture distribution.
func TestPercentileOrdering(t *testing.T) {
	st := runWindow(t, testConfig(200), 120, 300)
	if !(st.P50ms > 0 && st.P50ms <= st.P90ms && st.P90ms <= st.P99ms && st.P99ms <= st.MaxRTms) {
		t.Fatalf("quantiles out of order: p50=%g p90=%g p99=%g max=%g",
			st.P50ms, st.P90ms, st.P99ms, st.MaxRTms)
	}
	if st.MeanRTms <= 0 {
		t.Fatalf("mean RT = %g", st.MeanRTms)
	}
}

// TestConfigValidation: constructor rejects nonsense configurations.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Sessions = -1 },
		func(c *Config) { c.ThinkSec = 0 },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Web.Nodes = nil },
		func(c *Config) { c.App.Nodes = []NodeSpec{{Cores: 0, Speed: 1}} },
		func(c *Config) { c.Classes = []Class{{Name: "x", Weight: 0}} },
	}
	for i, mutate := range bad {
		cfg := testConfig(10)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestStepCostPopulationIndependent: a million-user advance costs the
// same number of steps as a hundred-user advance — the property that
// makes huge knee searches fast. Guarded by wall-clock, not steps, to
// stay robust.
func TestStepCostPopulationIndependent(t *testing.T) {
	cfg := testConfig(1000000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(1200) // a full rubbos-length trial horizon
	if s.tiers[TierDB].done <= 0 {
		t.Fatal("million-user run produced no completions")
	}
}
