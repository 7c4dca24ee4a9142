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
// this. A released kernel returns to a shared pool, and the next
// NewKernel on any goroutine may take it over.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
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
	slot int32 // index into Kernel.slab
	tag  int32 // passed to the receiver's act
}

// entry is one slot of the handler slab. It holds a pending event's
// receiver; while the event waits in a rung bucket or the top list, its
// time, seq and tag live here too, and next links it to the following
// event of that list. A free slot is linked into the free list by next.
// Slot 0 is never handed out, so 0 ends every list.
type entry struct {
	a    actor
	at   float64
	seq  int64
	tag  int32
	next int32
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
//
// Pending events wait in three tiers. The heap holds the events due
// soon. The rung holds later ones in buckets of equal width: bucket i
// holds the events whose index ⌊(at−start)/width⌋ is i, unsorted, and the
// buckets up to cur have been moved into the heap. The top list holds,
// unsorted, the events past the rung's last bucket. An event's index never
// decreases as its time grows, rounding included, so every heap event
// precedes every rung event, which precedes every top event, and events
// at the same instant always share a tier. The heap's root is therefore
// the earliest pending event, and the fire order is the (at, seq) order
// of a plain heap.
type Kernel struct {
	now   float64
	seq   int64
	pcg   *rand.PCG
	rng   *rand.Rand
	fired int64

	heap    []event // 4-ary min-heap ordered by (at, seq)
	buckets []int32 // head slot of each rung bucket's list; 0 when empty
	start   float64
	width   float64
	cur     int   // the bucket last moved into the heap
	top     int32 // head slot of the top list

	// slab is the handler slab: slab[e.slot] holds the receiver of
	// pending event e. A slot is released to the free list when its event
	// fires, so the slab never holds more entries than the peak number of
	// pending events of any trial the kernel has run.
	slab []entry
	free int32

	arena    arena
	released bool
}

// kernelPool holds released kernels for NewKernel to recycle.
var kernelPool sync.Pool

// NewKernel returns a kernel whose random stream is seeded
// deterministically from seed. It recycles a kernel that an earlier
// trial released when the pool holds one, reset to exactly a fresh
// kernel's state: its clock, event tiers and slab are empty and its
// stream is reseeded, so a trial fires the same events in the same order
// on either. Only the capacity of the trial arena carries over (see
// Release).
func NewKernel(seed uint64) *Kernel {
	k, _ := kernelPool.Get().(*Kernel)
	if k == nil {
		k = newKernel()
	}
	k.reset(seed)
	return k
}

// newKernel allocates a kernel that has never run a trial.
func newKernel() *Kernel {
	pcg := &rand.PCG{}
	return &Kernel{pcg: pcg, rng: rand.New(pcg), slab: make([]entry, 1)}
}

// reset returns k to a fresh kernel's state under seed, keeping the
// capacity of its slab, event tiers and trial arena.
func (k *Kernel) reset(seed uint64) {
	k.clear()
	k.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	k.now, k.seq, k.fired = 0, 0, 0
	k.start, k.width, k.cur = 0, 0, 0
	k.released = false
}

// clear empties the event tiers, the slab and the trial arena, dropping
// every reference into the trial that ran on k: no pending monitor tick,
// fault closure or user survives it.
func (k *Kernel) clear() {
	k.heap = k.heap[:0]
	clear(k.buckets)
	k.buckets = k.buckets[:0]
	k.top = 0
	clear(k.slab)
	k.slab = k.slab[:1]
	k.free = 0
	k.arena.clear()
}

// Release ends k's trial and hands k to the pool NewKernel draws from,
// where its trial arena keeps the capacity the trial grew instead of
// leaving it to the garbage collector. Release empties the rings and
// slots of every station built on k and the users and sample of its
// driver; nothing built on k may run afterwards.
func (k *Kernel) Release() {
	if k.released {
		panic("sim: kernel released twice")
	}
	k.clear()
	k.released = true
	kernelPool.Put(k)
}

// Now reports the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

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
	slot := k.free
	if slot != 0 {
		k.free = k.slab[slot].next
		k.slab[slot].a = a
	} else {
		slot = int32(len(k.slab))
		k.slab = append(k.slab, entry{a: a})
	}
	k.seq++
	k.place(event{at: k.now + delay, seq: k.seq, slot: slot, tag: tag})
}

// place files e in the tier its bucket index selects. A zero-width rung
// (a new kernel's, at time 0, or the one build leaves when it cannot
// spread the top list) makes the index −∞ before its instant, NaN at it
// and +∞ after it; NaN sends the event to the heap with the rest of that
// instant.
func (k *Kernel) place(e event) {
	x := (e.at - k.start) / k.width
	switch {
	case !(x >= float64(k.cur+1)):
		k.push(e)
	case x < float64(len(k.buckets)):
		k.link(&k.buckets[int(x)], e)
	default:
		k.link(&k.top, e)
	}
}

// link keeps e in its slab entry at the head of the list at head.
func (k *Kernel) link(head *int32, e event) {
	s := &k.slab[e.slot]
	s.at, s.seq, s.tag, s.next = e.at, e.seq, e.tag, *head
	*head = e.slot
}

// pushList moves the events of the list starting at slot into the heap.
func (k *Kernel) pushList(slot int32) {
	for ; slot != 0; slot = k.slab[slot].next {
		s := &k.slab[slot]
		k.push(event{at: s.at, seq: s.seq, slot: slot, tag: s.tag})
	}
}

// refill moves the next non-empty bucket into the empty heap, first
// building a new rung from the top list when every bucket has been moved.
// It reports whether any event is pending.
func (k *Kernel) refill() bool {
	for {
		for k.cur+1 < len(k.buckets) {
			k.cur++
			slot := k.buckets[k.cur]
			if slot == 0 {
				continue
			}
			k.buckets[k.cur] = 0
			k.pushList(slot)
			return true
		}
		if k.top == 0 {
			return false
		}
		k.build()
		if len(k.heap) > 0 {
			return true
		}
	}
}

// build spreads the top list over a new rung. With n events between min
// and max, the rung has n+1 buckets of width (max−min)/n, so the latest
// event lands in bucket n by the same index formula place uses: with a
// normal width, rounding lifts its computed index above n by a few ulps
// at most, well below n+1. A
// zero or subnormal width (all events at one instant, or nearly so) or an
// infinite one makes no rung: the events go straight to the heap, and the
// zero-width rung left at max sends later events at max to the heap and
// any after it to the top list.
func (k *Kernel) build() {
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for slot := k.top; slot != 0; slot = k.slab[slot].next {
		n++
		lo = min(lo, k.slab[slot].at)
		hi = max(hi, k.slab[slot].at)
	}
	slot := k.top
	k.top = 0
	k.start, k.width, k.cur = lo, (hi-lo)/float64(n), -1
	if !(k.width >= 0x1p-1022 && k.width <= math.MaxFloat64) {
		k.start, k.width, k.cur = hi, 0, 0
		k.buckets = k.buckets[:0]
		k.pushList(slot)
		return
	}
	if cap(k.buckets) > n {
		k.buckets = k.buckets[:n+1]
	} else {
		k.buckets = make([]int32, n+1)
	}
	for slot != 0 {
		s := &k.slab[slot]
		next := s.next
		i := int((s.at - k.start) / k.width)
		s.next = k.buckets[i]
		k.buckets[i] = slot
		slot = next
	}
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
	s := &k.slab[e.slot]
	a := s.a
	s.a = nil
	s.next = k.free
	k.free = e.slot
	a.act(e.tag)
}

// Run executes events until the simulated clock reaches until seconds or
// no events remain, and then advances the clock to until, also when the
// queue empties first. A clock already past until stays where it is.
func (k *Kernel) Run(until float64) {
	for len(k.heap) > 0 || k.refill() {
		if k.heap[0].at > until {
			break
		}
		k.dispatch(k.pop())
	}
	if k.now < until {
		k.now = until
	}
}

// Pending reports the number of scheduled events not yet fired.
func (k *Kernel) Pending() int { return int(k.seq - k.fired) }

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
	return fmt.Sprintf("sim.Kernel{now=%.3fs pending=%d fired=%d}", k.now, k.Pending(), k.fired)
}
