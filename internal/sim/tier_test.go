package sim

import (
	"testing"
)

func makeTier(k *Kernel, n int, policy BalancerPolicy) *Tier {
	stations := make([]*Station, n)
	for i := range stations {
		stations[i] = NewStation(k, StationConfig{
			Name: "S", Servers: 1, Speed: 1, Deterministic: true,
		})
	}
	return NewTier(k, "app", policy, stations)
}

func TestTierRoundRobinSpread(t *testing.T) {
	k := NewKernel(1)
	tier := makeTier(k, 3, RoundRobin)
	for i := 0; i < 9; i++ {
		tier.Submit(1.0, func(bool, float64, float64) {})
	}
	for i, s := range tier.Stations() {
		if s.InFlight() != 3 {
			t.Fatalf("station %d has %d jobs, want 3", i, s.InFlight())
		}
	}
}

func TestTierLeastConnections(t *testing.T) {
	k := NewKernel(1)
	tier := makeTier(k, 2, LeastConnections)
	// Load the first station directly, then ask the tier: it must pick
	// the idle one.
	tier.Stations()[0].Submit(10.0, func(bool, float64, float64) {})
	tier.Submit(1.0, func(bool, float64, float64) {})
	if tier.Stations()[1].InFlight() != 1 {
		t.Fatalf("least-connections did not pick the idle station")
	}
}

func TestTierRandomPickCoversAll(t *testing.T) {
	k := NewKernel(5)
	tier := makeTier(k, 4, RandomPick)
	for i := 0; i < 200; i++ {
		tier.Submit(1000.0, func(bool, float64, float64) {})
	}
	for i, s := range tier.Stations() {
		if s.InFlight() == 0 {
			t.Fatalf("random policy never used station %d", i)
		}
	}
}

func TestTierAggregates(t *testing.T) {
	k := NewKernel(1)
	tier := makeTier(k, 2, RoundRobin)
	for i := 0; i < 4; i++ {
		tier.Submit(1.0, func(bool, float64, float64) {})
	}
	k.Run(10)
	if tier.Completed() != 4 {
		t.Fatalf("completed = %d, want 4", tier.Completed())
	}
	tier.ResetAccounting()
	if tier.Completed() != 0 {
		t.Fatalf("reset did not clear tier counters")
	}
}

func TestTierPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" ||
		LeastConnections.String() != "least-connections" ||
		RandomPick.String() != "random" {
		t.Fatalf("policy names wrong")
	}
	if BalancerPolicy(42).String() == "" {
		t.Fatalf("unknown policy should still render")
	}
}

func TestTierPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for empty tier")
		}
	}()
	NewTier(NewKernel(1), "x", RoundRobin, nil)
}

// Submit dispatches a job with the given reference demand to one station
// chosen by the balancing policy.
func (t *Tier) Submit(demand float64, done Completion) {
	t.pick().submit(demand, completionFunc(done))
}

// SubmitPinned dispatches to the station assigned to affinity key pin,
// as Apache mod_jk's sticky sessions pin a user's session to one
// application server.
func (t *Tier) SubmitPinned(pin int, demand float64, done Completion) {
	t.pinned(pin).submit(demand, completionFunc(done))
}

// Completed sums completed jobs across the tier's stations, including
// retired ones (their work happened and still counts).
func (t *Tier) Completed() int64 {
	var n int64
	for _, s := range t.stations {
		n += s.Completed()
	}
	for _, s := range t.retired {
		n += s.Completed()
	}
	return n
}
