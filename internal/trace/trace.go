// Package trace implements deterministic request-level tracing for the
// simulated n-tier pipeline: the application-level half of the paper's
// observation apparatus. Where internal/monitor reproduces the
// system-level view (sar CPU series, §II), this package records *where in
// the request path* time is spent — each traced interaction produces a
// span tree with one span per tier hop (web → app → db, including RAIDb-1
// replica fan-out on writes), and every span separates queue-wait time
// from service time. The per-tier decomposition is what lets the analysis
// explain a flattening throughput curve instead of merely observing it,
// the same role the per-request records play in DiPerF and the tier-level
// breakdowns play in Wang et al.'s virtualized-server characterization.
//
// Tracing is head-sampled: the keep/drop decision for a request is a pure
// function of a seed and the request's issue index, derived with the same
// FNV-1a + PCG scheme the trial-seed and fault-plan derivations use.
// Because every trial owns its kernel and its collector, a seeded run
// yields byte-identical traces at any trial-parallelism level. Span
// objects are pooled on the collector, and with tracing disabled the
// simulation hot path executes no tracing code at all.
package trace

// Tier names as recorded in spans, in request-path order.
const (
	TierWeb = "web"
	TierApp = "app"
	TierDB  = "db"
)

// Span is one tier hop of a traced request: a single job submitted to one
// station, with the queue-wait/service split the station reports at
// completion. Times are simulated seconds; Start is absolute kernel time.
type Span struct {
	// Tier is the hop's tier ("web", "app", "db").
	Tier string
	// Station is the serving station's role name, e.g. "JONAS1".
	Station string
	// Start is the simulated time the job was submitted to the station.
	Start float64
	// Wait is the time spent queued before service, in seconds.
	Wait float64
	// Service is the time spent in service, in seconds.
	Service float64
	// Err marks hops the station rejected (queue limit or failure).
	Err bool
}

// Trace is the span tree of one traced request: root metadata plus one
// child span per tier hop, in completion order. RAIDb-1 broadcast writes
// contribute one db span per replica (the fan-out children); all other
// hops contribute exactly one span.
type Trace struct {
	// Interaction is the benchmark interaction name, e.g. "PutBid".
	Interaction string
	// Session is the emulated user session that issued the request.
	Session int
	// Issued is the simulated time the request was sent.
	Issued float64
	// RT is the end-to-end response time in seconds.
	RT float64
	// Outcome is the request's final disposition ("ok", "rejected",
	// "failed"), as reported by the router.
	Outcome string
	// Spans are the tier hops in completion order.
	Spans []Span
}

// AddSpan appends one tier hop, reusing the pooled trace's span capacity.
func (t *Trace) AddSpan(tier, station string, start, wait, service float64, ok bool) {
	t.Spans = append(t.Spans, Span{
		Tier: tier, Station: station,
		Start: start, Wait: wait, Service: service, Err: !ok,
	})
}

// Contribution is one tier's share of a request's response time, split
// into its queue-wait and service components.
type Contribution struct {
	WaitSec    float64
	ServiceSec float64
}

// Total reports the tier's combined wall-clock contribution.
func (c Contribution) Total() float64 { return c.WaitSec + c.ServiceSec }

// TierContributions decomposes the trace's response time by tier. Web and
// app hops are sequential, so their contributions add; a broadcast write's
// db spans run in parallel, so the db contribution is the slowest leg's
// wait+service (the broadcast completes when the slowest replica does).
// For a fully observed request the three contributions sum to RT exactly,
// because the simulated request path contains no other delays.
func (t *Trace) TierContributions() (web, app, db Contribution) {
	var dbBest float64
	for _, s := range t.Spans {
		switch s.Tier {
		case TierWeb:
			web.WaitSec += s.Wait
			web.ServiceSec += s.Service
		case TierApp:
			app.WaitSec += s.Wait
			app.ServiceSec += s.Service
		case TierDB:
			if total := s.Wait + s.Service; total >= dbBest {
				dbBest = total
				db = Contribution{WaitSec: s.Wait, ServiceSec: s.Service}
			}
		}
	}
	return web, app, db
}

// CriticalTier names the tier that contributed the most wall-clock time
// to the request — the critical-path attribution of the request's
// latency. Ties resolve in request-path order (web, app, db), which keeps
// the attribution deterministic. A trace with no spans attributes to "".
func (t *Trace) CriticalTier() string {
	if len(t.Spans) == 0 {
		return ""
	}
	web, app, db := t.TierContributions()
	best, tier := web.Total(), TierWeb
	if app.Total() > best {
		best, tier = app.Total(), TierApp
	}
	if db.Total() > best {
		tier = TierDB
	}
	return tier
}
