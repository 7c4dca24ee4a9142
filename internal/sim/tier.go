package sim

import "fmt"

// BalancerPolicy selects which station in a tier receives the next job.
type BalancerPolicy int

// Supported balancing policies. RoundRobin matches the paper's Apache
// mod_jk worker configuration; LeastConnections is provided for the
// ablation study of balancer sensitivity.
const (
	RoundRobin BalancerPolicy = iota
	LeastConnections
	RandomPick
)

// String names the policy for reports.
func (p BalancerPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastConnections:
		return "least-connections"
	case RandomPick:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Tier is a replicated set of stations fronted by a load balancer, such as
// the application-server tier with a app servers.
type Tier struct {
	k        *Kernel
	stations []*Station
	policy   BalancerPolicy
	next     int
	// retired holds stations removed by scale-in. They receive no new
	// work but keep draining in-flight jobs, and their counters stay
	// readable so cumulative busy-time and completion sums over the tier
	// remain monotone across replica-set changes.
	retired []*Station
}

// NewTier groups stations under a balancing policy. At least one station
// is required.
func NewTier(k *Kernel, name string, policy BalancerPolicy, stations []*Station) *Tier {
	if len(stations) == 0 {
		panic(fmt.Sprintf("sim: tier %q needs at least one station", name))
	}
	return &Tier{k: k, stations: stations, policy: policy}
}

// Stations returns the tier's stations (shared, not copied).
func (t *Tier) Stations() []*Station { return t.stations }

// Retired returns stations removed by scale-in (shared, not copied).
func (t *Tier) Retired() []*Station { return t.retired }

// Size reports the number of replicated stations.
func (t *Tier) Size() int { return len(t.stations) }

// AddStation joins a station to the balanced set. The round-robin cursor
// restarts at the head so the rebalanced rotation is a deterministic
// function of the new set, not of how much traffic preceded the change.
func (t *Tier) AddStation(s *Station) {
	t.stations = append(t.stations, s)
	t.next = 0
}

// RemoveStation retires the most recently added active station (LIFO,
// mirroring how scale-out grew the set) and returns it, or nil when the
// tier is already down to one station. The retired station finishes its
// in-flight jobs but is never picked again.
func (t *Tier) RemoveStation() *Station {
	if len(t.stations) <= 1 {
		return nil
	}
	s := t.stations[len(t.stations)-1]
	t.stations = t.stations[:len(t.stations)-1]
	t.retired = append(t.retired, s)
	t.next = 0
	return s
}

// pick selects a station according to the balancing policy.
func (t *Tier) pick() *Station {
	switch t.policy {
	case LeastConnections:
		best := t.stations[0]
		for _, s := range t.stations[1:] {
			if s.InFlight() < best.InFlight() {
				best = s
			}
		}
		return best
	case RandomPick:
		return t.stations[t.k.Rand().IntN(len(t.stations))]
	default: // RoundRobin
		s := t.stations[t.next%len(t.stations)]
		t.next++
		return s
	}
}

// pinned selects the station assigned to affinity key pin. The request
// router uses it so the traced path can note which station serves a hop
// before submitting.
func (t *Tier) pinned(pin int) *Station {
	if pin < 0 {
		pin = -pin
	}
	return t.stations[pin%len(t.stations)]
}

// ResetAccounting resets counters on every station in the tier.
func (t *Tier) ResetAccounting() {
	for _, s := range t.stations {
		s.ResetAccounting()
	}
	for _, s := range t.retired {
		s.ResetAccounting()
	}
}
