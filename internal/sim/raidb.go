package sim

import (
	"fmt"

	"elba/internal/trace"
)

// RAIDb models a C-JDBC RAIDb-1 (full replication) database cluster, the
// configuration the paper's generated mysqldb-raidb1-elba.xml file
// describes. It is a Tier of replicas: reads are balanced across them
// like any tier's requests, and scale-out and scale-in grow and retire
// replicas as they do stations. Only writes differ: they are broadcast to
// every active replica, each replica paying the tier's Demand, and
// complete when the slowest replica finishes. Broadcasts in flight keep
// the fan-out they started with; a retired replica drains its legs but
// receives no new write.
//
// This asymmetry is what produces the paper's sub-linear database
// scale-out: with write fraction w and d replicas, per-replica demand per
// request is w·Dw + (1−w)·Dr/d, so capacity grows by 1/(w + (1−w)/d)
// rather than d.
type RAIDb struct {
	Tier
	// wpool recycles write-broadcast trackers so a broadcast write costs
	// no allocation on the simulation hot path.
	wpool []*writeCall
	// lpool recycles per-replica write legs used only by traced writes.
	lpool []*writeLeg
}

// NewRAIDb creates a replicated DB tier over the given replica stations.
func NewRAIDb(k *Kernel, policy BalancerPolicy, replicas []*Station) *RAIDb {
	return &RAIDb{Tier: *NewTier(k, "db", policy, replicas)}
}

// Read dispatches a read query to one replica.
func (r *RAIDb) Read(demand float64, done Completion) {
	r.submitTo(r.pick(), demand, completionFunc(done))
}

// writeCall tracks one broadcast write across the replicas. Trackers are
// pooled on the RAIDb so steady-state writes allocate nothing.
type writeCall struct {
	r         *RAIDb
	parent    jobDone
	remaining int
	allOK     bool
	maxWait   float64
	maxSvc    float64
}

func (w *writeCall) jobFinished(ok bool, wait, service float64) {
	w.remaining--
	if !ok {
		w.allOK = false
	}
	if wait > w.maxWait {
		w.maxWait = wait
	}
	if service > w.maxSvc {
		w.maxSvc = service
	}
	if w.remaining == 0 {
		parent, allOK, maxWait, maxSvc := w.parent, w.allOK, w.maxWait, w.maxSvc
		w.parent = nil
		w.r.wpool = append(w.r.wpool, w)
		parent.jobFinished(allOK, maxWait, maxSvc)
	}
}

// Write broadcasts a write to every replica; done fires once, when the
// slowest replica has applied it (or immediately with ok=false if any
// replica rejects). Rejection by one replica does not cancel the others —
// like the real controller, the broadcast has already been issued — but
// the request is reported failed.
func (r *RAIDb) Write(demand float64, done Completion) {
	r.writeJob(demand, completionFunc(done))
}

// newWrite takes a broadcast tracker from the pool, armed to report to
// done once every active replica has finished.
func (r *RAIDb) newWrite(done jobDone) *writeCall {
	var w *writeCall
	if n := len(r.wpool); n > 0 {
		w = r.wpool[n-1]
		r.wpool = r.wpool[:n-1]
	} else {
		w = &writeCall{r: r}
	}
	w.parent = done
	w.remaining = len(r.stations)
	w.allOK = true
	w.maxWait, w.maxSvc = 0, 0
	return w
}

// writeJob is the allocation-free form of Write used by the request
// router.
func (r *RAIDb) writeJob(demand float64, done jobDone) {
	w := r.newWrite(done)
	for _, rep := range r.stations {
		r.submitTo(rep, demand, w)
	}
}

// writeLeg observes one replica's share of a traced broadcast write: it
// records the replica's span into the trace, then forwards the completion
// to the broadcast tracker. The aggregated jobFinished the tracker emits
// still carries the slowest leg's (wait, service), so traced and untraced
// writes produce identical request-level outcomes. Legs are pooled so
// traced writes allocate nothing in steady state.
type writeLeg struct {
	w       *writeCall
	tr      *trace.Trace
	station string
	start   float64
}

func (l *writeLeg) jobFinished(ok bool, wait, service float64) {
	w := l.w
	l.tr.AddSpan(trace.TierDB, l.station, l.start, wait, service, ok)
	l.w, l.tr = nil, nil
	w.r.lpool = append(w.r.lpool, l)
	w.jobFinished(ok, wait, service)
}

// writeJobTraced is writeJob with per-replica span capture into tr. A nil
// tr takes the untraced path, keeping the hot path branch-identical to
// historical behaviour.
func (r *RAIDb) writeJobTraced(demand float64, done jobDone, tr *trace.Trace) {
	if tr == nil {
		r.writeJob(demand, done)
		return
	}
	w := r.newWrite(done)
	now := r.k.Now()
	for _, rep := range r.stations {
		var l *writeLeg
		if n := len(r.lpool); n > 0 {
			l = r.lpool[n-1]
			r.lpool = r.lpool[:n-1]
		} else {
			l = &writeLeg{}
		}
		l.w, l.tr, l.station, l.start = w, tr, rep.name, now
		r.submitTo(rep, demand, l)
	}
}

// String describes the cluster for logs.
func (r *RAIDb) String() string {
	return fmt.Sprintf("RAIDb-1[%d replicas, %s reads]", len(r.stations), r.policy)
}
