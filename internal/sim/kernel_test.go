package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
	if got := k.fired; got != 100 {
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

// TestKernelOrdersDegenerateSpreads covers the pending sets from which no
// rung can be built: a spread of a few subnormal steps, whose bucket width
// would round so far down that the latest event would index past bucket
// n, and an infinite time among finite ones.
func TestKernelOrdersDegenerateSpreads(t *testing.T) {
	const ulp = 0x1p-1074
	for _, delays := range [][]float64{
		{6 * ulp, ulp, 3 * ulp, 2 * ulp},
		{math.Inf(1), 2, 3 * ulp, 1, math.Inf(1), 3 * ulp},
	} {
		k := NewKernel(1)
		var at []float64
		var fired []int
		schedule := func(delay float64) {
			id := len(at)
			at = append(at, k.Now()+delay)
			k.Schedule(delay, func() { fired = append(fired, id) })
		}
		for _, d := range delays {
			schedule(d)
		}
		k.Run(math.MaxFloat64)
		schedule(1) // due at MaxFloat64, before the infinite times
		k.Run(math.Inf(1))
		want := make([]int, len(at))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
		if !slices.Equal(fired, want) {
			t.Fatalf("delays %v fired as %v, want %v", delays, fired, want)
		}
	}
}

// TestKernelFiresInStableTimeOrder is a differential test of the event
// queue: in each regime, over 2·10⁴ events, closure and actor receivers
// mixed, events scheduled from inside handlers and the run cut into many
// Run(until) and Step calls, the fire order must equal a stable sort of
// the schedule order by time — the (at, seq) order. After every Run and
// Step, Pending must equal the events scheduled minus those fired.
func TestKernelFiresInStableTimeOrder(t *testing.T) {
	regimes := []struct {
		name string
		// delay draws the delay of an event a handler schedules.
		delay func(rng *rand.Rand, now float64) float64
		// advance draws the next until passed to Run.
		advance func(rng *rand.Rand, until float64) float64
		// outside, when set, draws the delay of an event scheduled after
		// each Run and Step call, outside any handler.
		outside func(rng *rand.Rand) float64
	}{
		{
			// Delays are multiples of 0.5 (some negative, clamped to now), so
			// timestamps collide constantly and compare exactly.
			name:    "collisions",
			delay:   func(rng *rand.Rand, _ float64) float64 { return float64(rng.IntN(10)-2) * 0.5 },
			advance: func(rng *rand.Rand, until float64) float64 { return until + float64(rng.IntN(4))*0.5 },
		},
		{
			// des-sweep's mix: 30% think times (mean 7 s), 70% service
			// times (mean 5 ms).
			name: "des-sweep-mix",
			delay: func(rng *rand.Rand, _ float64) float64 {
				if rng.IntN(10) < 3 {
					return rng.ExpFloat64() * 7
				}
				return rng.ExpFloat64() * 0.005
			},
			advance: func(rng *rand.Rand, until float64) float64 { return until + float64(rng.IntN(4))*0.01 },
		},
		{
			// Every event fires at t = 1, so the rung built from them has
			// zero spread.
			name:    "one-instant",
			delay:   func(_ *rand.Rand, now float64) float64 { return 1 - now },
			advance: func(rng *rand.Rand, until float64) float64 { return until + float64(rng.IntN(4))*0.25 },
		},
		{
			// Handlers schedule into the first 10 ms of the next second,
			// so Run often stops with a freshly built rung starting after
			// until. The events then scheduled at until (half the time,
			// the delay being clamped) or up to 0.2 s past it often precede
			// the rung's start.
			name: "before-rung-start",
			delay: func(rng *rand.Rand, now float64) float64 {
				return math.Floor(now) + 1 + 0.01*rng.Float64() - now
			},
			advance: func(rng *rand.Rand, until float64) float64 { return until + float64(rng.IntN(4))*0.1 },
			outside: func(rng *rand.Rand) float64 { return rng.Float64()*0.4 - 0.2 },
		},
		{
			// Delays log-uniform over 1e-9 to 1e6 s; until grows
			// geometrically so that Run cuts the run in every decade.
			name:  "wide-span",
			delay: func(rng *rand.Rand, _ float64) float64 { return math.Pow(10, -9+15*rng.Float64()) },
			advance: func(rng *rand.Rand, until float64) float64 {
				return until + float64(rng.IntN(4))*(1e-9+until/8)
			},
		},
	}
	for _, r := range regimes {
		r := r
		t.Run(r.name, func(t *testing.T) {
			checkStableTimeOrder(t, r.delay, r.advance, r.outside)
		})
	}
}

func checkStableTimeOrder(t *testing.T, delayOf func(*rand.Rand, float64) float64,
	advance func(*rand.Rand, float64) float64, outside func(*rand.Rand) float64) {
	const total = 20000
	k := NewKernel(1)
	rng := k.Rand()
	var at []float64 // at[id]: the time event id was scheduled for
	var fired []int
	latest := 0.0
	var schedule func(delay float64)
	fire := func(id int) {
		if k.Now() != at[id] {
			t.Fatalf("event %d fired at %g, scheduled for %g", id, k.Now(), at[id])
		}
		// Handlers schedule more work, often for the current instant.
		for n := rng.IntN(3); n > 0 && len(at) < total; n-- {
			schedule(delayOf(rng, k.Now()))
		}
	}
	schedule = func(delay float64) {
		id := len(at)
		at = append(at, k.Now()+math.Max(delay, 0))
		latest = math.Max(latest, at[id])
		if rng.IntN(2) == 0 {
			k.Schedule(delay, func() { fired = append(fired, id); fire(id) })
			return
		}
		k.scheduleAct(delay, actorFunc(func(tag int32) { fired = append(fired, int(tag)); fire(int(tag)) }), int32(id))
	}
	checkPending := func(call string) {
		if got, want := k.Pending(), len(at)-len(fired); got != want {
			t.Fatalf("after %s: Pending() = %d, want %d scheduled − %d fired = %d",
				call, got, len(at), len(fired), want)
		}
	}
	for i := 0; i < 2000; i++ {
		schedule(delayOf(rng, k.Now()))
	}
	for until := 0.0; k.Pending() > 0; until = advance(rng, until) {
		if rng.IntN(5) == 0 {
			if !k.Step() {
				t.Fatalf("Step found no event with %d pending", k.Pending())
			}
			checkPending("Step")
		} else {
			k.Run(until)
			checkPending("Run")
			if until >= latest && k.Pending() > 0 {
				t.Fatalf("Run(%g) left %d events pending, the latest due at %g", until, k.Pending(), latest)
			}
		}
		if outside != nil && len(at) < total {
			schedule(outside(rng))
		}
	}
	if len(at) != total || len(fired) != total || k.fired != total {
		t.Fatalf("scheduled %d, fired %d (kernel counted %d), want %d each",
			len(at), len(fired), k.fired, total)
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

// holdActor reschedules itself whenever it fires, so the number of
// pending events stays where the benchmark put it: the hold model of
// priority-queue benchmarks. A delay is a think time (mean 7 s) with
// probability far and a service time (mean 5 ms) otherwise.
type holdActor struct {
	k   *Kernel
	far float64
}

func (h *holdActor) act(int32) { h.k.scheduleAct(h.delay(), h, 0) }

func (h *holdActor) delay() float64 {
	if h.k.Rand().Float64() < h.far {
		return h.k.Exp(7)
	}
	return h.k.Exp(0.005)
}

// BenchmarkSimKernelEvents times one event of a hold model (fire the
// earliest event, whose handler schedules its successor) at 1, 10², 10³
// and 10⁴ pending events. With one pending event, each successor goes to
// the top list and through a rung build before it reaches the heap. "far"
// draws every delay as a think time; "mix" draws des-sweep's mix, 30%
// think times and 70% service times, where most pending events are think
// times and most fired ones service times. An op is one event, including
// its delay draw and handler call.
func BenchmarkSimKernelEvents(b *testing.B) {
	for _, pending := range []int{1, 100, 1000, 10000} {
		for _, mix := range []struct {
			name string
			far  float64
		}{{"far", 1}, {"mix", 0.3}} {
			b.Run(fmt.Sprintf("pending=%d/%s", pending, mix.name), func(b *testing.B) {
				k := NewKernel(1)
				h := &holdActor{k: k, far: mix.far}
				for i := 0; i < pending; i++ {
					k.scheduleAct(h.delay(), h, 0)
				}
				// Reach the model's steady state, and the queue's steady
				// allocation, before timing.
				for i := 0; i < 10*pending; i++ {
					k.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
				}
			})
		}
	}
}

// Step executes exactly one pending event and reports whether one existed.
// It is intended for tests that need fine-grained control.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 && !k.refill() {
		return false
	}
	k.dispatch(k.pop())
	return true
}
