package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(2.0, func() { order = append(order, 2) })
	k.Schedule(1.0, func() { order = append(order, 1) })
	k.Schedule(3.0, func() { order = append(order, 3) })
	k.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 10 {
		t.Fatalf("clock should advance to until: %g", k.Now())
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Schedule(1.0, func() { order = append(order, i) })
	}
	k.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelRunStopsAtUntil(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(5.0, func() { fired = true })
	k.Run(4.9)
	if fired {
		t.Fatalf("event beyond until fired")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run(5.0)
	if !fired {
		t.Fatalf("event at until should fire")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 100 {
			k.Schedule(0.01, chain)
		}
	}
	k.Schedule(0, chain)
	k.Run(100)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if got := k.Events(); got != 100 {
		t.Fatalf("fired = %d, want 100", got)
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	k.Run(5) // advance clock
	ran := false
	k.Schedule(-3, func() { ran = true })
	k.Step()
	if !ran {
		t.Fatalf("negative-delay event should run immediately")
	}
	if k.Now() != 5 {
		t.Fatalf("negative delay moved clock backwards: %g", k.Now())
	}
}

func TestKernelStep(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Fatalf("Step on empty kernel should report false")
	}
	k.Schedule(1, func() {})
	if !k.Step() {
		t.Fatalf("Step should fire the pending event")
	}
}

func TestKernelExp(t *testing.T) {
	k := NewKernel(42)
	if k.Exp(0) != 0 || k.Exp(-1) != 0 {
		t.Fatalf("non-positive mean must yield 0")
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += k.Exp(2.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0) > 0.1 {
		t.Fatalf("Exp mean = %g, want ≈2.0", mean)
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() []float64 {
		k := NewKernel(7)
		var out []float64
		var loop func()
		loop = func() {
			out = append(out, k.Now())
			if len(out) < 50 {
				k.Schedule(k.Exp(1.0), loop)
			}
		}
		k.Schedule(0, loop)
		k.Run(1e9)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// Property: the clock never moves backwards no matter how events are
// scheduled.
func TestKernelMonotoneClockProperty(t *testing.T) {
	f := func(delays []float64) bool {
		k := NewKernel(3)
		last := 0.0
		monotone := true
		for _, d := range delays {
			d := math.Mod(math.Abs(d), 100)
			k.Schedule(d, func() {
				if k.Now() < last {
					monotone = false
				}
				last = k.Now()
			})
		}
		k.Run(1000)
		return monotone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelFiresInStableTimeOrder is a differential test of the event
// heap: over 2·10⁴ events with many equal timestamps, closure and actor
// receivers mixed, events scheduled from inside handlers and the run cut
// into many Run(until) and Step calls, the fire order must equal a stable
// sort of the schedule order by time — the (at, seq) order.
func TestKernelFiresInStableTimeOrder(t *testing.T) {
	const total = 20000
	k := NewKernel(1)
	rng := k.Rand()
	var at []float64 // at[id]: the time event id was scheduled for
	var fired []int
	var schedule func()
	fire := func(id int) {
		if k.Now() != at[id] {
			t.Fatalf("event %d fired at %g, scheduled for %g", id, k.Now(), at[id])
		}
		// Handlers schedule more work, often for the current instant.
		for n := rng.IntN(3); n > 0 && len(at) < total; n-- {
			schedule()
		}
	}
	schedule = func() {
		id := len(at)
		// Delays are multiples of 0.5 (some negative, clamped to now), so
		// timestamps collide constantly and compare exactly.
		delay := float64(rng.IntN(10)-2) * 0.5
		at = append(at, k.Now()+math.Max(delay, 0))
		if rng.IntN(2) == 0 {
			k.Schedule(delay, func() { fired = append(fired, id); fire(id) })
			return
		}
		k.scheduleAct(delay, actorFunc(func(tag int32) { fired = append(fired, int(tag)); fire(int(tag)) }), int32(id))
	}
	for i := 0; i < 2000; i++ {
		schedule()
	}
	for until := 0.0; k.Pending() > 0; until += float64(rng.IntN(4)) * 0.5 {
		if rng.IntN(5) == 0 {
			k.Step()
			continue
		}
		k.Run(until)
	}
	if len(at) != total || len(fired) != total || k.Events() != total {
		t.Fatalf("scheduled %d, fired %d (kernel counted %d), want %d each",
			len(at), len(fired), k.Events(), total)
	}
	want := make([]int, total)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire %d: event %d (t=%g), want event %d (t=%g)",
				i, fired[i], at[fired[i]], want[i], at[want[i]])
		}
	}
}

// actorFunc adapts a function to the actor interface for tests.
type actorFunc func(tag int32)

func (f actorFunc) act(tag int32) { f(tag) }
