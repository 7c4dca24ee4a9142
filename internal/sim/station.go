package sim

import "fmt"

// Completion receives the outcome of a submitted job. ok is false when the
// station refused the job because it has failed (see Fail); wait and
// service report the time the job spent queued and in service, in seconds.
type Completion func(ok bool, wait, service float64)

// jobDone is the allocation-free form of Completion: hot-path callers
// (the n-tier request router, the RAIDb write broadcaster) implement it on
// pooled objects so a request traverses the whole tier chain without
// allocating a closure per hop.
type jobDone interface {
	jobFinished(ok bool, wait, service float64)
}

// completionFunc adapts a Completion closure to the jobDone interface.
// Converting a func value to an interface does not allocate, so the public
// Submit/Read/Write entry points cost the same as before.
type completionFunc Completion

func (f completionFunc) jobFinished(ok bool, wait, service float64) { f(ok, wait, service) }

// Station models one host resource (a server process bound to a node CPU)
// as a multi-server FCFS queue. Service demands are specified at a
// reference CPU frequency and divided by the station's speed factor, so a
// 600 MHz node (speed 0.2 against a 3 GHz reference) serves the same
// demand five times slower.
//
// A node's disk spindle and network link are stations too: one server,
// deterministic service, and a speed that converts their demand units to
// seconds (see AttachDisk).
type Station struct {
	k       *Kernel
	name    string
	servers int
	speed   float64
	detSvc  bool

	busy   int
	queue  fifo
	failed bool
	degr   float64 // runtime degradation factor; 1 = full speed

	// slots hold in-service jobs; the kernel's actor events carry the slot
	// index, so a service completion costs no allocation.
	slots []svcSlot
	free  []int32

	// disk and net are the node's optional contended devices; requests
	// with disk/net demands queue on them around CPU service (see
	// submitRes). rpool recycles the multi-leg job trackers.
	disk  *Station
	net   *Station
	rpool []*resJob

	// accounting
	busyTime   float64 // integral of busy servers over time, in server-seconds
	lastChange float64
	completed  int64
}

type pendingJob struct {
	demand  float64
	arrived float64
	done    jobDone
}

// fifo is a station's waiting line: a ring over a power-of-two backing
// array that is reused as jobs drain, so a queue that never empties stays
// within twice its peak length instead of growing with every job ever
// queued. The backing array comes from the kernel's trial arena and
// outlives the trial, so the bound holds over all the trials a kernel
// runs.
type fifo struct {
	buf  []pendingJob
	head int
	n    int
}

// minFIFO is the ring's first capacity.
const minFIFO = 8

func (q *fifo) len() int { return q.n }

func (q *fifo) push(j pendingJob) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = j
	q.n++
}

// pop removes the oldest job; the queue must be non-empty.
func (q *fifo) pop() pendingJob {
	j := q.buf[q.head]
	q.buf[q.head] = pendingJob{} // release the completion reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return j
}

// grow doubles the ring, unwrapping the live jobs to the front.
func (q *fifo) grow() {
	buf := make([]pendingJob, max(2*len(q.buf), minFIFO))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

type svcSlot struct {
	jd   jobDone
	wait float64
	svc  float64
}

// StationConfig configures a Station.
type StationConfig struct {
	// Name identifies the station in monitor output, e.g. "APP1".
	Name string
	// Servers is the number of parallel servers (CPU cores × processes).
	Servers int
	// Speed is the node's CPU frequency relative to the 3 GHz reference.
	Speed float64
	// Deterministic disables exponential service-time sampling; demands
	// are served exactly, as on a disk or link device.
	Deterministic bool
}

// NewStation creates a station attached to kernel k. Its queue ring and
// service slots come from k's trial arena, which takes them back at
// Release. Invalid configuration (no servers, non-positive speed) panics:
// stations are constructed from validated deployment plans, so this
// indicates a bug.
func NewStation(k *Kernel, cfg StationConfig) *Station {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("sim: station %q needs at least one server", cfg.Name))
	}
	if cfg.Speed <= 0 {
		panic(fmt.Sprintf("sim: station %q needs positive speed", cfg.Name))
	}
	s := &Station{
		k:       k,
		name:    cfg.Name,
		servers: cfg.Servers,
		speed:   cfg.Speed,
		detSvc:  cfg.Deterministic,
		degr:    1,
	}
	k.arena.adoptStation(s)
	return s
}

// Servers reports the number of parallel servers.
func (s *Station) Servers() int { return s.servers }

// queued reports the number of jobs waiting for a server.
func (s *Station) queued() int { return s.queue.len() }

// InFlight reports jobs currently queued or in service.
func (s *Station) InFlight() int { return s.busy + s.queued() }

// Completed reports the number of jobs served to completion.
func (s *Station) Completed() int64 { return s.completed }

// Fail takes the station out of service: every subsequent submission is
// refused until Recover. Jobs already queued or in service complete
// normally, modelling a server whose accept queue is closed (crash-stop
// of the listener) rather than a power failure. The failure-injection
// experiments use this to observe how the deployment degrades.
func (s *Station) Fail() { s.failed = true }

// Recover returns a failed station to service.
func (s *Station) Recover() { s.failed = false }

// SetDegradation scales the station's effective speed by f for jobs that
// start from now on: 1 restores full speed, values toward 0 model a
// slowed or stalled host (fault-injection slowdown and stall windows).
// Non-positive factors are clamped to a small floor rather than zero so
// in-flight work still drains, matching a stalled-but-alive server.
func (s *Station) SetDegradation(f float64) {
	if f <= 0 {
		f = 0.001
	}
	if f > 1 {
		f = 1
	}
	s.degr = f
}

// Submit offers a job with the given reference demand (seconds at the
// reference frequency). done is invoked exactly once: immediately with
// ok=false when the station has failed, or at service completion with
// ok=true.
func (s *Station) Submit(demand float64, done Completion) {
	s.submit(demand, completionFunc(done))
}

// submit is the allocation-free entry point used inside the package.
func (s *Station) submit(demand float64, done jobDone) {
	if s.failed {
		done.jobFinished(false, 0, 0)
		return
	}
	j := pendingJob{demand: demand, arrived: s.k.Now(), done: done}
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue.push(j)
}

func (s *Station) start(j pendingJob) {
	s.accumulate()
	s.busy++
	svc := j.demand / (s.speed * s.degr)
	if !s.detSvc {
		svc = s.k.Exp(svc)
	}
	wait := s.k.Now() - j.arrived
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, svcSlot{})
		slot = int32(len(s.slots) - 1)
	}
	s.slots[slot] = svcSlot{jd: j.done, wait: wait, svc: svc}
	s.k.scheduleAct(svc, s, slot)
}

// act completes the service occupying the given slot. It implements the
// kernel's actor interface, so a completion event carries only the slot
// index rather than an allocated closure.
func (s *Station) act(slot int32) {
	sl := s.slots[slot]
	s.slots[slot] = svcSlot{}
	s.free = append(s.free, slot)
	s.accumulate()
	s.busy--
	s.completed++
	if s.queue.len() > 0 {
		s.start(s.queue.pop())
	}
	sl.jd.jobFinished(true, sl.wait, sl.svc)
}

// accumulate folds busy-server time since the last state change into the
// busy-time integral.
func (s *Station) accumulate() {
	now := s.k.Now()
	s.busyTime += float64(s.busy) * (now - s.lastChange)
	s.lastChange = now
}

// BusyTime reports the cumulative busy server-seconds, for windowed
// utilization sampling: util = ΔBusyTime / (Δt × servers).
func (s *Station) BusyTime() float64 {
	s.accumulate()
	return s.busyTime
}

// ResetAccounting clears counters and the busy-time integral without
// disturbing in-flight work. The trial runner calls this at the end of the
// warm-up period so measurements cover only the run period.
func (s *Station) ResetAccounting() {
	s.accumulate()
	s.busyTime = 0
	s.completed = 0
	if s.disk != nil {
		s.disk.ResetAccounting()
	}
	if s.net != nil {
		s.net.ResetAccounting()
	}
}
