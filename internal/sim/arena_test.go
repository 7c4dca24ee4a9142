package sim

import (
	"math"
	"reflect"
	"testing"
)

// freshKernel returns a kernel that has never run a trial, bypassing the
// pool, for tests whose assertions a recycled kernel's capacity would
// change.
func freshKernel(seed uint64) *Kernel {
	k := newKernel()
	k.reset(seed)
	return k
}

// replayed is what replayWorkload observes of a run.
type replayed struct {
	// started is the number of successes and summaries the driver held
	// before its measurement began: none.
	started int
	fired   int64
	rts     []uint64 // the success sample's bits, in completion order
	means   map[string]float64
	busy    []float64
}

// replayWorkload runs a small read/write workload with a disk leg on the
// database replicas, so it queues on station and disk rings and service
// slots, and broadcasts writes.
func replayWorkload(k *Kernel) replayed {
	nt := buildApp(k, 1, 2, 2)
	nt.DB.Demand = TierDemand{DiskSec: 0.002}
	for _, st := range nt.DB.Stations() {
		st.AttachDisk(NewStation(k, StationConfig{Name: "disk", Servers: 1, Speed: 1, Deterministic: true}))
	}
	d := NewDriver(k, nt, mixModel{think: 0.02}, DriverConfig{Users: 40, RampUp: 0.2}, 11)
	var out replayed
	out.started = d.ResponseTimes().Count() + len(d.PerInteraction())
	d.Start()
	k.Run(1)
	d.BeginMeasurement()
	k.Run(6)
	d.EndMeasurement()

	out.fired = k.fired
	for _, rt := range d.ResponseTimes().Since(0) {
		out.rts = append(out.rts, math.Float64bits(rt))
	}
	out.means = map[string]float64{}
	for name, s := range d.PerInteraction() {
		out.means[name] = s.Mean()
	}
	for _, tier := range [][]*Station{nt.Web.Stations(), nt.App.Stations(), nt.DB.Stations()} {
		for _, st := range tier {
			out.busy = append(out.busy, st.BusyTime())
			if disk := st.Disk(); disk != nil {
				out.busy = append(out.busy, disk.BusyTime())
			}
		}
	}
	return out
}

// TestResetKernelReplaysLikeFresh runs a larger, saturated trial that
// leaves a periodic tick and a fault closure pending, resets its kernel,
// and replays a small workload on it: the replay must match the same
// workload on a fresh kernel in every event, every success-sample bit,
// every per-interaction mean and every busy time.
func TestResetKernelReplaysLikeFresh(t *testing.T) {
	want := replayWorkload(freshKernel(7))
	if len(want.rts) == 0 || len(want.means) != 2 {
		t.Fatalf("replay workload measured %d successes over %d interactions", len(want.rts), len(want.means))
	}

	k := freshKernel(3)
	nt := buildApp(k, 2, 3, 3)
	d := NewDriver(k, nt, mixModel{think: 0.01}, DriverConfig{Users: 600, RampUp: 0.5}, 5)
	d.Start()
	ticks := 0
	var tick func()
	tick = func() { ticks++; k.Schedule(0.25, tick) }
	k.Schedule(0.25, tick)
	crash := nt.DB.Stations()[0]
	k.Schedule(100, crash.Fail)
	d.BeginMeasurement()
	k.Run(10)
	if k.Pending() == 0 {
		t.Fatalf("larger run left nothing pending")
	}
	if crash.queued() == 0 {
		t.Fatalf("larger run did not saturate the database tier")
	}
	ticksBefore := ticks

	k.reset(7)
	type state struct {
		now, start, width        float64
		seq, fired               int64
		cur, heap, buckets, slab int
		top, free                int32
		rand                     uint64
	}
	stateOf := func(k *Kernel) state {
		return state{k.now, k.start, k.width, k.seq, k.fired, k.cur,
			len(k.heap), len(k.buckets), len(k.slab), k.top, k.free, k.rng.Uint64()}
	}
	if got, want := stateOf(k), stateOf(freshKernel(7)); got != want {
		t.Fatalf("reset kernel %+v, fresh kernel %+v", got, want)
	}
	k.reset(7)
	got := replayWorkload(k)
	if ticks != ticksBefore || crash.failed {
		t.Fatalf("a closure of the larger run fired after reset: %d ticks, crash %v", ticks-ticksBefore, crash.failed)
	}
	if got.started != 0 {
		t.Fatalf("driver on the reset kernel started with %d successes and summaries", got.started)
	}
	if got.fired != want.fired {
		t.Fatalf("fired %d events after reset, %d on a fresh kernel", got.fired, want.fired)
	}
	if !reflect.DeepEqual(got.rts, want.rts) {
		t.Fatalf("success sample differs after reset: %d values against %d", len(got.rts), len(want.rts))
	}
	if !reflect.DeepEqual(got.means, want.means) {
		t.Fatalf("per-interaction means %v after reset, %v fresh", got.means, want.means)
	}
	if !reflect.DeepEqual(got.busy, want.busy) {
		t.Fatalf("busy times %v after reset, %v fresh", got.busy, want.busy)
	}
}

// TestReleaseDropsTrialReferences checks that the clear Release starts
// with leaves the kernel no pointer into its trial and the trial's driver
// and stations none into the arena, and that a second Release panics.
func TestReleaseDropsTrialReferences(t *testing.T) {
	k := freshKernel(1)
	nt := buildApp(k, 1, 1, 1)
	d := NewDriver(k, nt, mixModel{think: 0.01}, DriverConfig{Users: 50, RampUp: 0.1}, 1)
	d.Start()
	k.Schedule(50, func() {})
	d.BeginMeasurement()
	k.Run(3)
	st := nt.App.Stations()[0]
	if k.arena.users.n != 50 || d.ResponseTimes().Count() == 0 || st.queue.buf == nil {
		t.Fatalf("trial did not use the arena")
	}

	k.clear()
	for i, e := range k.slab[:cap(k.slab)] {
		if e.a != nil {
			t.Fatalf("slab entry %d still holds a receiver", i)
		}
	}
	for _, u := range k.arena.users.chunks[0] {
		if u != (user{}) {
			t.Fatalf("arena still holds a user: %+v", u)
		}
	}
	if d.users != nil || d.rtSample != nil || d.perIx != nil || st.queue.buf != nil || st.slots != nil {
		t.Fatalf("driver or station still points into the arena")
	}
	for _, st := range k.arena.stores {
		for _, j := range st.ring {
			if j.done != nil {
				t.Fatalf("a kept ring still holds a job")
			}
		}
	}

	k.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("second Release did not panic")
		}
	}()
	k.Release()
}
