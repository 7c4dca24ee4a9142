package sim

import (
	"fmt"

	"elba/internal/trace"
)

// NTier is an assembled n-tier application deployment: a web tier that
// distributes requests, a replicated application tier, and a RAIDb-1
// database tier. It routes one Interaction through the tiers and reports
// the end-to-end outcome.
//
// The request path matches the benchmarks' architecture: every
// interaction passes the web tier, then the application tier; the
// application issues one database operation (read or write) and finishes
// the reply. The web tier does little work — the paper notes it "performs
// as the workload distributor and does very little work" — but it is
// modelled so its non-bottleneck status is an observed result rather than
// an assumption.
type NTier struct {
	Web *Tier
	App *Tier
	DB  *RAIDb
	// StickyApp enables mod_jk-style session affinity: each user session
	// is pinned to one application server instead of being balanced per
	// request. The affinity ablation compares both modes.
	StickyApp bool

	// Demands carries each tier's optional per-request demands on the
	// node's contended resources, indexed web=0, app=1, db=2. A zero
	// value (the default) routes requests exactly as the CPU-only model
	// always has. The DB entry applies to reads; broadcast writes read
	// RAIDb.Demand, which the builder sets to the same value.
	Demands [3]TierDemand
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

// zero reports whether the demand adds nothing beyond CPU.
func (d TierDemand) zero() bool { return d.CPUScale == 0 && d.DiskSec == 0 && d.NetBytes == 0 }

// Outcome reports how a request ended.
type Outcome int

// Request outcomes. Rejected requests were refused, by a full connection
// pool (the driver's MaxSessions) or a failed server; Failed requests had
// a replica error during a broadcast write.
const (
	OK Outcome = iota
	Rejected
	Failed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Rejected:
		return "rejected"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// outcomeDone receives the end-to-end outcome of a routed request. The
// driver implements it on per-user state so the closed loop runs without
// per-request closures; ServeSession adapts plain functions for callers
// outside the package.
type outcomeDone interface {
	requestDone(Outcome)
}

// call is the routing state of one in-flight request. Calls live in the
// kernel's trial arena and return to its free list when their request
// finishes, so steady-state traffic allocates nothing while traversing
// the tiers. Its stages mirror the benchmarks' request path: web tier,
// then app tier, then one database operation.
//
// When the request is traced (tr != nil) the call records one span per
// tier hop: the serving station is noted at dispatch, and the hop's
// queue-wait/service split arrives with the station's completion
// callback. Untraced requests skip every tracing branch, so the disabled
// path stays allocation-free and byte-identical to historical behaviour.
type call struct {
	a                   *arena
	nt                  *NTier
	done                outcomeDone
	session             int
	stage               int8
	write               bool
	appDemand, dbDemand float64

	// tracing state; valid only while tr != nil.
	tr         *trace.Trace
	hopStation string
	hopStart   float64
}

// dispatch submits the job to st, noting the hop for span attribution
// when the request is traced. tier indexes NTier.Demands; when that tier
// declares no extra resource demands the request takes the exact
// historical CPU-only path.
func (c *call) dispatch(st *Station, demand float64, tier int) {
	if c.tr != nil {
		c.hopStation = st.name
		c.hopStart = st.k.Now()
	}
	d := &c.nt.Demands[tier]
	if d.zero() {
		st.submit(demand, c)
		return
	}
	cpu := demand
	if d.CPUScale > 0 {
		cpu = demand * d.CPUScale
	}
	st.submitRes(cpu, d.DiskSec, d.NetBytes, c)
}

func (c *call) jobFinished(ok bool, wait, service float64) {
	switch c.stage {
	case 0: // web tier finished
		if c.tr != nil {
			c.tr.AddSpan(trace.TierWeb, c.hopStation, c.hopStart, wait, service, ok)
		}
		if !ok {
			c.finish(Rejected)
			return
		}
		c.stage = 1
		if c.nt.StickyApp && c.session >= 0 {
			c.dispatch(c.nt.App.pinned(c.session), c.appDemand, 1)
		} else {
			c.dispatch(c.nt.App.pick(), c.appDemand, 1)
		}
	case 1: // app tier finished
		if c.tr != nil {
			c.tr.AddSpan(trace.TierApp, c.hopStation, c.hopStart, wait, service, ok)
		}
		if !ok {
			c.finish(Rejected)
			return
		}
		c.stage = 2
		if c.write {
			// Broadcast writes fan out one span per replica; the legs
			// record them, so the aggregated completion below must not.
			c.nt.DB.writeJobTraced(c.dbDemand, c, c.tr)
		} else {
			c.dispatch(c.nt.DB.pickRead(), c.dbDemand, 2)
		}
	default: // database finished
		if c.tr != nil && !c.write {
			c.tr.AddSpan(trace.TierDB, c.hopStation, c.hopStart, wait, service, ok)
		}
		if !ok {
			c.finish(Failed)
			return
		}
		c.finish(OK)
	}
}

func (c *call) finish(o Outcome) {
	done := c.done
	c.done = nil
	c.tr = nil
	c.a.freeCalls = append(c.a.freeCalls, c)
	done.requestDone(o)
}

// serveSession routes one interaction for the given user session through
// web → app → db and reports its outcome to done. Response time is
// measured by the caller (the driver) from submit to completion. When
// StickyApp is set and session >= 0, the app tier uses the session's
// pinned server. tr, when non-nil, receives one span per tier hop.
func (nt *NTier) serveSession(session int, it *Interaction, done outcomeDone, tr *trace.Trace) {
	c := nt.Web.k.arena.call()
	c.nt = nt
	c.done = done
	c.session = session
	c.stage = 0
	c.write = it.Write
	c.appDemand = it.AppDemand
	c.dbDemand = it.DBDemand
	c.tr = tr
	c.dispatch(nt.Web.pick(), it.WebDemand, 0)
}

// ResetAccounting resets counters on all tiers.
func (nt *NTier) ResetAccounting() {
	nt.Web.ResetAccounting()
	nt.App.ResetAccounting()
	nt.DB.ResetAccounting()
}
