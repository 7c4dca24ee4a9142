package sim

import (
	"math"
	"testing"
)

func TestPSSingleJob(t *testing.T) {
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	var done bool
	var sojourn float64
	s.Submit(2.0, func(ok bool, _, svc float64) { done, sojourn = ok, svc })
	k.Run(10)
	if !done || math.Abs(sojourn-2.0) > 1e-9 {
		t.Fatalf("lone PS job should take exactly its demand: %v %g", done, sojourn)
	}
}

func TestPSEqualSharing(t *testing.T) {
	// Two equal jobs arriving together on one server each take 2× their
	// demand: they share the processor.
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	var at []float64
	for i := 0; i < 2; i++ {
		s.Submit(1.0, func(bool, float64, float64) { at = append(at, k.Now()) })
	}
	k.Run(10)
	if len(at) != 2 {
		t.Fatalf("completions = %d", len(at))
	}
	for _, a := range at {
		if math.Abs(a-2.0) > 1e-9 {
			t.Fatalf("completion at %g, want 2.0 (shared)", a)
		}
	}
}

func TestPSShortJobNotStuckBehindLong(t *testing.T) {
	// The defining PS property the FCFS station lacks: a short job
	// arriving behind a long one still finishes quickly.
	k := NewKernel(1)
	ps := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	var shortDone float64
	ps.Submit(10.0, func(bool, float64, float64) {})
	k.Run(1) // long job has 9s left
	ps.Submit(0.5, func(bool, float64, float64) { shortDone = k.Now() })
	k.Run(100)
	// Short job shares 50/50: finishes 1s after arrival (at t=2).
	if math.Abs(shortDone-2.0) > 1e-9 {
		t.Fatalf("short PS job finished at %g, want 2.0", shortDone)
	}

	// Same arrival pattern under FCFS: the short job waits the full 9s.
	k2 := NewKernel(1)
	fcfs := NewStation(k2, StationConfig{Name: "F", Servers: 1, Speed: 1, Deterministic: true})
	var fcfsDone float64
	fcfs.Submit(10.0, func(bool, float64, float64) {})
	k2.Run(1)
	fcfs.Submit(0.5, func(bool, float64, float64) { fcfsDone = k2.Now() })
	k2.Run(100)
	if fcfsDone <= 10.0 {
		t.Fatalf("FCFS short job finished at %g, should wait for the long one", fcfsDone)
	}
}

func TestPSMultiServerNoSharingBelowCapacity(t *testing.T) {
	// Two jobs on a two-server PS station don't share: each runs at
	// full rate.
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 2, Speed: 1})
	var at []float64
	for i := 0; i < 2; i++ {
		s.Submit(1.0, func(bool, float64, float64) { at = append(at, k.Now()) })
	}
	k.Run(10)
	for _, a := range at {
		if math.Abs(a-1.0) > 1e-9 {
			t.Fatalf("completion at %g, want 1.0", a)
		}
	}
}

func TestPSSpeedScaling(t *testing.T) {
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 0.2})
	var at float64
	s.Submit(1.0, func(bool, float64, float64) { at = k.Now() })
	k.Run(100)
	if math.Abs(at-5.0) > 1e-9 {
		t.Fatalf("completion at %g, want 5.0", at)
	}
}

func TestPSBusyTimeAccounting(t *testing.T) {
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	// Two shared 1s jobs: busy 0..2.
	s.Submit(1.0, func(bool, float64, float64) {})
	s.Submit(1.0, func(bool, float64, float64) {})
	k.Run(4)
	if bt := s.BusyTime(); math.Abs(bt-2.0) > 1e-9 {
		t.Fatalf("busy time = %g, want 2.0", bt)
	}
	s.ResetAccounting()
	if s.BusyTime() != 0 || s.Completed() != 0 {
		t.Fatalf("reset failed")
	}
}

func TestPSManyJobsConservation(t *testing.T) {
	// Work conservation: N equal jobs on one server finish at N×demand,
	// all together.
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	const n = 50
	var finished int
	for i := 0; i < n; i++ {
		s.Submit(0.1, func(bool, float64, float64) { finished++ })
	}
	k.Run(100)
	if finished != n {
		t.Fatalf("finished = %d", finished)
	}
	if math.Abs(k.Now()-100) > 1e-9 && k.Now() < n*0.1-1e-9 {
		t.Fatalf("jobs finished too early")
	}
	if s.Completed() != n {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestPSStaggeredArrivals(t *testing.T) {
	// Job A (demand 2) starts at t=0; job B (demand 1) arrives at t=1.
	// A runs alone during [0,1): 1 unit done, 1 left. Then they share:
	// B finishes at t=3 (1 demand at rate 1/2), A also at t=3.
	k := NewKernel(1)
	s := NewPSStation(k, StationConfig{Name: "PS", Servers: 1, Speed: 1})
	var aDone, bDone float64
	s.Submit(2.0, func(bool, float64, float64) { aDone = k.Now() })
	k.Schedule(1.0, func() {
		s.Submit(1.0, func(bool, float64, float64) { bDone = k.Now() })
	})
	k.Run(10)
	if math.Abs(aDone-3.0) > 1e-9 || math.Abs(bDone-3.0) > 1e-9 {
		t.Fatalf("completions at %g/%g, want 3.0/3.0", aDone, bDone)
	}
}

func TestPSPanicsOnBadConfig(t *testing.T) {
	k := NewKernel(1)
	for _, cfg := range []StationConfig{
		{Servers: 0, Speed: 1},
		{Servers: 1, Speed: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewPSStation(k, cfg)
		}()
	}
}
