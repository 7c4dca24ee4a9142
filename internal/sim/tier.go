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
	next     int // round-robin cursor, below len(stations)
	// retired holds stations removed by scale-in. They receive no new
	// work but keep draining in-flight jobs, and their counters stay
	// readable so cumulative busy-time and completion sums over the tier
	// remain monotone across replica-set changes.
	retired []*Station
	// Demand is the tier's per-request demand on its nodes' contended
	// resources, charged on every station a request reaches: the one a
	// balanced request picks, or each replica of a broadcast write. The
	// zero value routes requests exactly as the CPU-only model always
	// has.
	Demand TierDemand
}

// TierDemand is one tier's per-request demand on its node's contended
// resources beyond the benchmark's CPU demand.
type TierDemand struct {
	// CPUScale multiplies the interaction's CPU demand (0 = unchanged).
	CPUScale float64
	// DiskSec is seconds of disk service per request at the reference
	// disk (0 = no disk leg).
	DiskSec float64
	// NetBytes is the payload carried into the tier per request over its
	// ingress link (0 = no network leg).
	NetBytes float64
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
		s := t.stations[t.next]
		if t.next++; t.next == len(t.stations) {
			t.next = 0
		}
		return s
	}
}

// submitTo offers st, one of the tier's stations, a request of reference
// CPU demand with the tier's resource legs. A tier that declares no
// resource demand takes the CPU-only path.
func (t *Tier) submitTo(st *Station, demand float64, done jobDone) {
	d := &t.Demand
	if d.CPUScale == 0 && d.DiskSec == 0 && d.NetBytes == 0 {
		st.submit(demand, done)
		return
	}
	cpu := demand
	if d.CPUScale > 0 {
		cpu = demand * d.CPUScale
	}
	st.submitRes(cpu, d.DiskSec, d.NetBytes, done)
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
