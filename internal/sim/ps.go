package sim

import "fmt"

// PSStation models a host resource under processor sharing: every active
// job receives an equal share of the station's servers, the discipline
// that better approximates a time-slicing application server than FCFS.
// It exists for the discipline-sensitivity ablation (DESIGN.md §5); the
// calibrated figures use FCFS stations, whose M/M/c behaviour matches the
// paper's queueing-theoretic framing.
//
// The implementation is event-driven: on every arrival or completion the
// remaining work of all active jobs is advanced by the elapsed time times
// the per-job rate, and the next completion event is rescheduled. A
// version counter invalidates stale completion events.
type PSStation struct {
	k       *Kernel
	servers int
	speed   float64

	active  []*psJob
	version int64

	lastAdvance float64
	busyTime    float64
	completed   int64
}

type psJob struct {
	remaining float64
	arrived   float64
	done      Completion
}

// NewPSStation creates a processor-sharing station.
func NewPSStation(k *Kernel, cfg StationConfig) *PSStation {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("sim: ps station %q needs at least one server", cfg.Name))
	}
	if cfg.Speed <= 0 {
		panic(fmt.Sprintf("sim: ps station %q needs positive speed", cfg.Name))
	}
	return &PSStation{k: k, servers: cfg.Servers, speed: cfg.Speed}
}

// Completed reports jobs served to completion.
func (s *PSStation) Completed() int64 { return s.completed }

// rate is the service rate each active job receives, in demand-seconds
// per simulated second.
func (s *PSStation) rate() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	share := float64(s.servers) / float64(n)
	if share > 1 {
		share = 1
	}
	return share * s.speed
}

// advance applies elapsed service to all active jobs and accumulates
// busy time.
func (s *PSStation) advance() {
	now := s.k.Now()
	dt := now - s.lastAdvance
	s.lastAdvance = now
	if dt <= 0 || len(s.active) == 0 {
		return
	}
	r := s.rate()
	for _, j := range s.active {
		j.remaining -= dt * r
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
	busy := float64(len(s.active))
	if busy > float64(s.servers) {
		busy = float64(s.servers)
	}
	s.busyTime += busy * dt
}

// Submit offers a job with the given reference demand. PS stations serve
// demands deterministically (the sharing itself provides the variance).
func (s *PSStation) Submit(demand float64, done Completion) {
	s.advance()
	s.active = append(s.active, &psJob{remaining: demand, arrived: s.k.Now(), done: done})
	s.reschedule()
}

// reschedule finds the job closest to completion and schedules its
// finish; older scheduled events are invalidated via the version counter.
func (s *PSStation) reschedule() {
	s.version++
	if len(s.active) == 0 {
		return
	}
	v := s.version
	min := s.active[0]
	for _, j := range s.active[1:] {
		if j.remaining < min.remaining {
			min = j
		}
	}
	eta := min.remaining / s.rate()
	s.k.Schedule(eta, func() {
		if s.version != v {
			return // superseded by a later arrival/completion
		}
		s.complete()
	})
}

// complete finishes every job whose remaining work has reached zero.
func (s *PSStation) complete() {
	s.advance()
	var finished []*psJob
	kept := s.active[:0]
	for _, j := range s.active {
		if j.remaining <= 1e-12 {
			finished = append(finished, j)
		} else {
			kept = append(kept, j)
		}
	}
	s.active = kept
	s.reschedule()
	for _, j := range finished {
		s.completed++
		sojourn := s.k.Now() - j.arrived
		j.done(true, 0, sojourn)
	}
}

// BusyTime reports cumulative busy server-seconds.
func (s *PSStation) BusyTime() float64 {
	s.advance()
	return s.busyTime
}

// ResetAccounting clears counters without disturbing active jobs.
func (s *PSStation) ResetAccounting() {
	s.advance()
	s.busyTime = 0
	s.completed = 0
}
