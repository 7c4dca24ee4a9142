package sim

import "elba/internal/metrics"

// arena is the trial state a kernel keeps from one trial to the next:
// the parts a trial grows as it runs. Each part is handed out empty, so a
// trial runs exactly as it would on a fresh kernel, but with the capacity
// the kernel's earlier trials grew it to. clear empties it again and
// drops every reference into the finished trial.
type arena struct {
	// driver is the first driver built on the kernel since clear. It
	// takes the arena's success sample, per-interaction summaries and
	// user list; a further driver allocates its own.
	driver   *Driver
	sample   *metrics.Sample
	perIx    []metrics.Summary
	userList []*user

	users     stable[user]
	calls     stable[call]
	freeCalls []*call

	// stations lists the stations built since clear, in creation order.
	// stores keeps their storage between trials: the i-th station built
	// takes the i-th store.
	stations []*Station
	stores   []stationStore
}

// stationStore is a station's queue ring, service slots and free-slot
// stack, kept between trials.
type stationStore struct {
	ring  []pendingJob
	slots []svcSlot
	free  []int32
}

// adoptDriver gives d its success sample, its per-interaction summaries
// (one per interaction of d's model, zeroed) and its empty user list.
func (a *arena) adoptDriver(d *Driver) {
	n := len(d.ixs)
	if a.driver != nil {
		d.rtSample, d.perIx = metrics.NewSample(4096), make([]metrics.Summary, n)
		return
	}
	a.driver = d
	if a.sample == nil {
		a.sample = metrics.NewSample(4096)
	}
	a.sample.Reset()
	if cap(a.perIx) < n {
		a.perIx = make([]metrics.Summary, n)
	}
	a.perIx = a.perIx[:n]
	clear(a.perIx)
	d.rtSample, d.perIx, d.users = a.sample, a.perIx, a.userList
}

// call returns a request call that no request holds.
func (a *arena) call() *call {
	if n := len(a.freeCalls); n > 0 {
		c := a.freeCalls[n-1]
		a.freeCalls = a.freeCalls[:n-1]
		return c
	}
	c := a.calls.next()
	c.a = a
	return c
}

// adoptStation gives a new station the queue ring and service slots of
// its creation order.
func (a *arena) adoptStation(s *Station) {
	if i := len(a.stations); i < len(a.stores) {
		s.queue.buf, s.slots, s.free = a.stores[i].ring, a.stores[i].slots, a.stores[i].free
	}
	a.stations = append(a.stations, s)
}

// clear takes back the storage the trial's driver and stations grew,
// empties it, and leaves them pointing at none of it.
func (a *arena) clear() {
	if d := a.driver; d != nil {
		clear(d.users)
		a.userList = d.users[:0]
		d.users, d.rtSample, d.perIx = nil, nil, nil
		a.driver = nil
	}
	a.users.clear()
	a.calls.clear()
	clear(a.freeCalls)
	a.freeCalls = a.freeCalls[:0]

	for i, s := range a.stations {
		if i == len(a.stores) {
			a.stores = append(a.stores, stationStore{})
		}
		clear(s.queue.buf)
		clear(s.slots)
		a.stores[i] = stationStore{ring: s.queue.buf, slots: s.slots[:0], free: s.free[:0]}
		s.queue, s.slots, s.free = fifo{}, nil, nil
	}
	clear(a.stations)
	a.stations = a.stations[:0]
}

// chunkLen is the number of values in one chunk of a stable.
const chunkLen = 256

// stable hands out zeroed values of T at addresses that never move: it
// grows by whole chunks and never copies a value.
type stable[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

// next returns the next zeroed value.
func (s *stable[T]) next() *T {
	c := s.n / chunkLen
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	v := &s.chunks[c][s.n%chunkLen]
	s.n++
	return v
}

// clear zeroes every value handed out, so that next hands them out again.
func (s *stable[T]) clear() {
	for c := 0; c*chunkLen < s.n; c++ {
		clear(s.chunks[c][:min(chunkLen, s.n-c*chunkLen)])
	}
	s.n = 0
}
