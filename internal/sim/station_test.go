package sim

import (
	"math"
	"testing"
)

func detStation(k *Kernel, servers int, speed float64) *Station {
	return NewStation(k, StationConfig{
		Name: "S", Servers: servers, Speed: speed, Deterministic: true,
	})
}

func TestStationSingleJob(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	var done bool
	var svc float64
	s.Submit(0.5, func(ok bool, wait, service float64) {
		done, svc = ok, service
	})
	k.Run(1)
	if !done || svc != 0.5 {
		t.Fatalf("job not served correctly: done=%v svc=%g", done, svc)
	}
	if k.Now() < 0.5 {
		t.Fatalf("clock did not advance through service")
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestStationSpeedScaling(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 0.2) // 600 MHz vs 3 GHz reference
	var svc float64
	s.Submit(1.0, func(_ bool, _, service float64) { svc = service })
	k.Run(10)
	if math.Abs(svc-5.0) > 1e-12 {
		t.Fatalf("service = %g, want 5.0 (demand/speed)", svc)
	}
}

func TestStationFCFSQueueing(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	var finishOrder []int
	var waits []float64
	peak := 0
	for i := 0; i < 3; i++ {
		i := i
		s.Submit(1.0, func(_ bool, wait, _ float64) {
			finishOrder = append(finishOrder, i)
			waits = append(waits, wait)
		})
		peak = max(peak, s.queued())
	}
	k.Run(10)
	for i, v := range finishOrder {
		if v != i {
			t.Fatalf("not FCFS: %v", finishOrder)
		}
	}
	// deterministic 1s jobs: waits are 0, 1, 2
	for i, w := range waits {
		if math.Abs(w-float64(i)) > 1e-9 {
			t.Fatalf("wait[%d] = %g, want %d", i, w, i)
		}
	}
	if peak != 2 {
		t.Fatalf("queued peak = %d, want 2", peak)
	}
}

func TestStationMultiServerParallelism(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 2, 1.0)
	var finished []float64
	for i := 0; i < 4; i++ {
		s.Submit(1.0, func(_ bool, _, _ float64) { finished = append(finished, k.Now()) })
	}
	k.Run(10)
	// 2 servers, 4 deterministic 1s jobs: finish at 1,1,2,2
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if math.Abs(finished[i]-want[i]) > 1e-9 {
			t.Fatalf("finish times = %v, want %v", finished, want)
		}
	}
}

func TestStationUtilizationAccounting(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	s.Submit(2.0, func(bool, float64, float64) {})
	k.Run(4) // busy 0..2, idle 2..4
	if bt := s.BusyTime(); math.Abs(bt-2.0) > 1e-9 {
		t.Fatalf("busy time = %g, want 2.0", bt)
	}
}

func TestStationResetAccounting(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	s.Submit(1.0, func(bool, float64, float64) {})
	k.Run(2)
	s.ResetAccounting()
	if s.Completed() != 0 || s.BusyTime() != 0 {
		t.Fatalf("reset did not clear accounting")
	}
	// In-flight work must survive a reset.
	s.Submit(1.0, func(bool, float64, float64) {})
	k.Run(4)
	if s.Completed() != 1 {
		t.Fatalf("post-reset job lost")
	}
}

func TestStationPanicsOnBadConfig(t *testing.T) {
	k := NewKernel(1)
	for _, cfg := range []StationConfig{
		{Name: "bad", Servers: 0, Speed: 1},
		{Name: "bad", Servers: 1, Speed: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewStation(k, cfg)
		}()
	}
}

func TestStationStochasticServiceMean(t *testing.T) {
	k := NewKernel(99)
	s := NewStation(k, StationConfig{Name: "S", Servers: 1, Speed: 1})
	const n = 5000
	var total float64
	remaining := n
	var submit func()
	submit = func() {
		s.Submit(0.03, func(_ bool, _, service float64) {
			total += service
			remaining--
			if remaining > 0 {
				submit()
			}
		})
	}
	submit()
	k.Run(1e9)
	mean := total / n
	if math.Abs(mean-0.03) > 0.002 {
		t.Fatalf("stochastic service mean = %g, want ≈0.03", mean)
	}
}

func TestStationFailRecover(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	// A job in service survives the failure.
	var survived bool
	s.Submit(1.0, func(ok bool, _, _ float64) { survived = ok })
	s.Fail()
	if !s.failed {
		t.Fatalf("Failed() should report true")
	}
	rejected := false
	s.Submit(1.0, func(ok bool, _, _ float64) { rejected = !ok })
	if !rejected {
		t.Fatalf("failed station accepted a job")
	}
	k.Run(5)
	if !survived {
		t.Fatalf("in-service job should complete through the failure")
	}
	s.Recover()
	var after bool
	s.Submit(1.0, func(ok bool, _, _ float64) { after = ok })
	k.Run(10)
	if !after {
		t.Fatalf("recovered station should serve again")
	}
}

// TestQueuesStayBoundedUnderSaturation keeps a one-server deterministic
// station (the shape of a disk or link device) saturated for a long run
// with a steady backlog: every completion submits a replacement job, so
// the queue never drains. The FIFO must reuse its backing array, staying
// within twice the peak queue length instead of growing with every job
// ever queued. Its kernel is a fresh one: a recycled kernel's rings keep
// the capacity of its earlier trials.
func TestQueuesStayBoundedUnderSaturation(t *testing.T) {
	const backlog, jobs = 100, 20000
	k := freshKernel(1)
	s := detStation(k, 1, 1.0)
	served, peak := 0, 0
	submit := func(done Completion) {
		s.Submit(1, done)
		peak = max(peak, s.queued())
	}
	var resubmit Completion
	resubmit = func(bool, float64, float64) {
		if served++; served+backlog < jobs {
			submit(resubmit)
		}
	}
	for i := 0; i <= backlog; i++ {
		submit(resubmit)
	}
	k.Run(math.Inf(1))
	if served != jobs {
		t.Fatalf("station served %d jobs, want %d", served, jobs)
	}
	if peak != backlog {
		t.Fatalf("queued peak %d, want the %d-job backlog", peak, backlog)
	}
	if c := cap(s.queue.buf); c > 2*peak {
		t.Fatalf("queue backing array holds %d jobs for a peak of %d", c, peak)
	}
}
