package sim

import (
	"fmt"

	"elba/internal/trace"
)

// RAIDb models a C-JDBC RAIDb-1 (full replication) database cluster, the
// configuration the paper's generated mysqldb-raidb1-elba.xml file
// describes. Reads are load-balanced across replicas; writes are broadcast
// to every replica and complete when the slowest replica finishes.
//
// This asymmetry is what produces the paper's sub-linear database
// scale-out: with write fraction w and d replicas, per-replica demand per
// request is w·Dw + (1−w)·Dr/d, so capacity grows by 1/(w + (1−w)/d)
// rather than d.
type RAIDb struct {
	k        *Kernel
	replicas []*Station
	policy   BalancerPolicy
	next     int
	// Demand carries the DB tier's optional per-request resource demands.
	// Broadcast writes charge every replica's disk and ingress link
	// individually: the controller ships the statement to each replica,
	// and each replica applies it to its own spindle. A zero value keeps
	// the historical CPU-only write path.
	Demand TierDemand
	// wpool recycles write-broadcast trackers so a broadcast write costs
	// no allocation on the simulation hot path.
	wpool []*writeCall
	// lpool recycles per-replica write legs used only by traced writes.
	lpool []*writeLeg
	// retired holds replicas removed by scale-in. In-flight reads and
	// broadcast-write legs on a retired replica still complete (writeCall
	// snapshots its fan-out at submit), but no new query reaches it.
	retired []*Station
}

// NewRAIDb creates a replicated DB tier over the given replica stations.
func NewRAIDb(k *Kernel, policy BalancerPolicy, replicas []*Station) *RAIDb {
	if len(replicas) == 0 {
		panic("sim: RAIDb needs at least one replica")
	}
	return &RAIDb{k: k, replicas: replicas, policy: policy}
}

// Replicas returns the backing stations (shared, not copied).
func (r *RAIDb) Replicas() []*Station { return r.replicas }

// Retired returns replicas removed by scale-in (shared, not copied).
func (r *RAIDb) Retired() []*Station { return r.retired }

// Size reports the number of replicas.
func (r *RAIDb) Size() int { return len(r.replicas) }

// AddReplica joins a replica to the cluster: subsequent reads rotate over
// the grown set from the head, and subsequent writes broadcast to it.
// Broadcasts already in flight are unaffected (they snapshotted their
// fan-out at submit).
func (r *RAIDb) AddReplica(s *Station) {
	r.replicas = append(r.replicas, s)
	r.next = 0
}

// RemoveReplica retires the most recently added replica (LIFO) and
// returns it, or nil when the cluster is already down to one replica.
// The retired replica drains its in-flight queries but is excluded from
// new reads and write broadcasts.
func (r *RAIDb) RemoveReplica() *Station {
	if len(r.replicas) <= 1 {
		return nil
	}
	s := r.replicas[len(r.replicas)-1]
	r.replicas = r.replicas[:len(r.replicas)-1]
	r.retired = append(r.retired, s)
	r.next = 0
	return s
}

func (r *RAIDb) pickRead() *Station {
	switch r.policy {
	case LeastConnections:
		best := r.replicas[0]
		for _, s := range r.replicas[1:] {
			if s.InFlight() < best.InFlight() {
				best = s
			}
		}
		return best
	case RandomPick:
		return r.replicas[r.k.Rand().IntN(len(r.replicas))]
	default:
		s := r.replicas[r.next%len(r.replicas)]
		r.next++
		return s
	}
}

// Read dispatches a read query to one replica.
func (r *RAIDb) Read(demand float64, done Completion) {
	r.pickRead().submit(demand, completionFunc(done))
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

// writeJob is the allocation-free form of Write used by the request
// router.
func (r *RAIDb) writeJob(demand float64, done jobDone) {
	var w *writeCall
	if n := len(r.wpool); n > 0 {
		w = r.wpool[n-1]
		r.wpool = r.wpool[:n-1]
	} else {
		w = &writeCall{r: r}
	}
	w.parent = done
	w.remaining = len(r.replicas)
	w.allOK = true
	w.maxWait, w.maxSvc = 0, 0
	if r.Demand.zero() {
		for _, rep := range r.replicas {
			rep.submit(demand, w)
		}
		return
	}
	cpu, disk, net := r.writeDemands(demand)
	for _, rep := range r.replicas {
		rep.submitRes(cpu, disk, net, w)
	}
}

// writeDemands resolves one broadcast write's per-replica resource legs
// from the tier demand declaration.
func (r *RAIDb) writeDemands(demand float64) (cpu, disk, net float64) {
	cpu = demand
	if r.Demand.CPUScale > 0 {
		cpu = demand * r.Demand.CPUScale
	}
	return cpu, r.Demand.DiskSec, r.Demand.NetBytes
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
	var w *writeCall
	if n := len(r.wpool); n > 0 {
		w = r.wpool[n-1]
		r.wpool = r.wpool[:n-1]
	} else {
		w = &writeCall{r: r}
	}
	w.parent = done
	w.remaining = len(r.replicas)
	w.allOK = true
	w.maxWait, w.maxSvc = 0, 0
	now := r.k.Now()
	plain := r.Demand.zero()
	var cpu, disk, net float64
	if !plain {
		cpu, disk, net = r.writeDemands(demand)
	}
	for _, rep := range r.replicas {
		var l *writeLeg
		if n := len(r.lpool); n > 0 {
			l = r.lpool[n-1]
			r.lpool = r.lpool[:n-1]
		} else {
			l = &writeLeg{}
		}
		l.w, l.tr, l.station, l.start = w, tr, rep.name, now
		if plain {
			rep.submit(demand, l)
		} else {
			rep.submitRes(cpu, disk, net, l)
		}
	}
}

// ResetAccounting resets counters on every replica.
func (r *RAIDb) ResetAccounting() {
	for _, s := range r.replicas {
		s.ResetAccounting()
	}
	for _, s := range r.retired {
		s.ResetAccounting()
	}
}

// String describes the cluster for logs.
func (r *RAIDb) String() string {
	return fmt.Sprintf("RAIDb-1[%d replicas, %s reads]", len(r.replicas), r.policy)
}
