// Package sim implements the discrete-event simulation substrate on which
// Elba experiments run in place of a physical cluster. It provides an
// event kernel, multi-server queueing stations with frequency-scaled
// service rates, tiers with pluggable load balancing, a C-JDBC-style
// RAIDb-1 replicated database tier, and a closed-loop client driver that
// executes benchmark workload models.
//
// The design follows the paper's measurement setting: a closed queueing
// network where each emulated user alternates between thinking and issuing
// an interaction that traverses web, application, and database tiers. All
// state lives inside the kernel; no goroutines are used, so trials are
// fully deterministic for a given seed. Because a kernel is single-owner,
// many trials can run concurrently on separate kernels without any
// synchronization — the experiment runner's trial parallelism relies on
// this.
package sim

import (
	"fmt"
	"math/rand/v2"
)

// event is one entry of the pending-event heap. Events at the same
// instant fire in schedule order (seq breaks ties), keeping runs
// deterministic. An entry holds no pointer: its receiver lives in the
// kernel's handler slab at slot, so the sifts that move entries never run
// a GC write barrier, and at 24 bytes an entry is half the size it would
// be carrying the receiver inline.
type event struct {
	at   float64
	seq  int64
	slot int32 // index into Kernel.recv
	tag  int32 // passed to the receiver's act
}

// actor is implemented by simulation components that receive scheduled
// events without per-event closures. The tag disambiguates what the event
// means to the receiver (e.g. which service slot completed).
type actor interface {
	act(tag int32)
}

// funcActor adapts a Schedule closure to the actor interface. A func value
// is pointer-shaped, so the conversion does not allocate.
type funcActor func()

func (f funcActor) act(int32) { f() }

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now   float64
	seq   int64
	heap  []event // 4-ary min-heap ordered by (at, seq)
	rng   *rand.Rand
	fired int64

	// recv is the handler slab: recv[e.slot] is the receiver of pending
	// event e. A slot is released to free when its event fires, so the
	// slab never holds more entries than the peak number of pending events.
	recv []actor
	free []int32
}

// NewKernel creates a kernel whose random stream is seeded
// deterministically from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Now reports the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Events reports how many events have fired so far, which the benchmarks
// use as a work metric.
func (k *Kernel) Events() int64 { return k.fired }

// Rand exposes the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule arranges for fn to run delay seconds from now. A negative delay
// is treated as zero (run as soon as the current event completes).
func (k *Kernel) Schedule(delay float64, fn func()) {
	k.scheduleAct(delay, funcActor(fn), 0)
}

// scheduleAct arranges for a.act(tag) to run delay seconds from now. It is
// the allocation-free fast path used by stations and drivers.
func (k *Kernel) scheduleAct(delay float64, a actor, tag int32) {
	if delay < 0 {
		delay = 0
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.recv[slot] = a
	} else {
		slot = int32(len(k.recv))
		k.recv = append(k.recv, a)
	}
	k.seq++
	k.push(event{at: k.now + delay, seq: k.seq, slot: slot, tag: tag})
}

// heapArity is the branching factor of the pending-event heap. A 4-ary
// heap halves the tree depth of a binary heap and keeps siblings in one
// cache line, which is measurably faster at the event rates the sweep
// benchmarks produce.
const heapArity = 4

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, moving a hole up from the new leaf instead of swapping:
// each level costs one 24-byte copy, and e is written once at the end.
func (k *Kernel) push(e event) {
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes the earliest event, moving a hole down from the root and
// dropping the former last entry into it. (at, seq) is a total order, so
// the pop sequence is the same as any other correct heap's.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[m]) {
				m = c
			}
		}
		if !eventLess(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// dispatch fires one popped event, releasing its slab slot first so the
// receiver may schedule into it.
func (k *Kernel) dispatch(e event) {
	k.now = e.at
	k.fired++
	a := k.recv[e.slot]
	k.recv[e.slot] = nil
	k.free = append(k.free, e.slot)
	a.act(e.tag)
}

// Run executes events until the simulated clock reaches until seconds or
// no events remain. The clock is left at until (or at the last event time
// when the queue empties first).
func (k *Kernel) Run(until float64) {
	for len(k.heap) > 0 {
		if k.heap[0].at > until {
			break
		}
		k.dispatch(k.pop())
	}
	if k.now < until {
		k.now = until
	}
}

// Step executes exactly one pending event and reports whether one existed.
// It is intended for tests that need fine-grained control.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	k.dispatch(k.pop())
	return true
}

// Pending reports the number of scheduled events not yet fired.
func (k *Kernel) Pending() int { return len(k.heap) }

// Exp draws an exponentially distributed duration with the given mean. A
// non-positive mean yields zero, which callers use for deterministic
// (zero-demand) steps.
func (k *Kernel) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return k.rng.ExpFloat64() * mean
}

// String describes the kernel state for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{now=%.3fs pending=%d fired=%d}", k.now, len(k.heap), k.fired)
}
