package trace

import "math/rand/v2"

// SeedFor derives the trace-sampling seed from a trial's derived seed by
// folding a domain label through the same FNV-1a mixing the trial-seed
// and fault-plan derivations use. Keeping the domain separate means
// enabling tracing never perturbs any other stream drawn from the trial
// seed — a traced run measures exactly what an untraced run measures.
func SeedFor(trialSeed uint64) uint64 {
	h := trialSeed
	for _, c := range []byte("trace") {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Collector gathers the sampled traces of one trial. Like the simulation
// kernel it serves, a collector is single-owner: one collector per trial,
// no locks, so parallel trials never contend or interleave.
type Collector struct {
	seed uint64
	rate float64

	traces []*Trace
}

// NewCollector creates a collector sampling each request with the given
// probability. The keep/drop decision for request i is a pure function of
// (seed, i); rate is clamped to [0, 1].
func NewCollector(seed uint64, rate float64) *Collector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Collector{seed: seed, rate: rate}
}

// Rate reports the sampling probability.
func (c *Collector) Rate() float64 { return c.rate }

// Sample reports whether the request with the given issue index is
// traced. The decision hashes (seed, req) with FNV-1a and draws one PCG
// variate — the same derivation scheme as trial seeds and fault plans —
// so it is independent of every other random stream in the trial and
// identical for any worker count. The PCG state lives on the stack, so a
// decision allocates nothing.
func (c *Collector) Sample(req uint64) bool {
	if c.rate <= 0 {
		return false
	}
	if c.rate >= 1 {
		return true
	}
	h := c.seed
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	mix(req)
	mix(req >> 32)
	if h == 0 {
		h = 1
	}
	var pcg rand.PCG
	pcg.Seed(h, h^0x9e3779b97f4a7c15)
	// Top 53 bits → uniform float in [0, 1), the math/rand/v2 construction.
	return float64(pcg.Uint64()>>11)/(1<<53) < c.rate
}

// Start begins a trace for one request.
func (c *Collector) Start(interaction string, session int, issued float64) *Trace {
	return &Trace{Interaction: interaction, Session: session, Issued: issued}
}

// Commit finalizes a started trace with its end-to-end outcome and
// records it. Traces commit at request-completion events, so their order
// is the kernel's deterministic event order.
func (c *Collector) Commit(t *Trace, rt float64, outcome string) {
	t.RT = rt
	t.Outcome = outcome
	c.traces = append(c.traces, t)
}

// Traces returns the committed traces in commit order (shared, not
// copied — the collector is read after its trial's kernel stops).
func (c *Collector) Traces() []*Trace { return c.traces }
