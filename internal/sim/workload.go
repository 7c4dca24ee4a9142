package sim

import "math/rand/v2"

// Interaction is one user-visible request type of a benchmark application,
// such as RUBiS's "PutBid" or RUBBoS's "ViewStory". Demands are CPU
// seconds at the reference frequency (3 GHz).
type Interaction struct {
	// Name is the benchmark's interaction-state name.
	Name string
	// WebDemand, AppDemand, DBDemand are the per-tier CPU demands.
	WebDemand float64
	AppDemand float64
	DBDemand  float64
	// Write marks interactions that issue database writes; writes are
	// broadcast to all RAIDb-1 replicas.
	Write bool
	// RequestBytes and ReplyBytes size the network transfer for the
	// monitor's network-I/O accounting.
	RequestBytes int
	ReplyBytes   int
}

// Session is one emulated user's walk through a benchmark's interaction
// state machine. Implementations are typically Markov chains over the
// benchmark's transition matrix.
type Session interface {
	// Next returns the index, into its model's Interactions, of the next
	// interaction the user performs. rng is the deterministic stream the
	// session must use for all randomness.
	Next(rng *rand.Rand) int
}

// Model is a benchmark workload: it names itself, creates user sessions,
// and reports the mean think time separating a user's interactions.
type Model interface {
	// Name identifies the benchmark and variant, e.g. "rubis/jonas".
	Name() string
	// NewSession creates an independent user session.
	NewSession(rng *rand.Rand) Session
	// ThinkTime reports the mean think time in seconds.
	ThinkTime() float64
	// Interactions lists the distinct interaction types. Sessions
	// return indices into it, and the driver keeps one response-time
	// summary per index and reports it under the interaction's name, so
	// the names must be unique.
	Interactions() []Interaction
}
