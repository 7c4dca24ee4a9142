package sim

import (
	"math"
	"strings"
	"testing"
)

func makeRAIDb(k *Kernel, n int) *RAIDb {
	reps := make([]*Station, n)
	for i := range reps {
		reps[i] = NewStation(k, StationConfig{
			Name: "DB", Servers: 1, Speed: 1, Deterministic: true,
		})
	}
	return NewRAIDb(k, RoundRobin, reps)
}

func TestRAIDbReadGoesToOneReplica(t *testing.T) {
	k := NewKernel(1)
	db := makeRAIDb(k, 3)
	db.Read(1.0, func(bool, float64, float64) {})
	k.Run(10)
	if db.Completed() != 1 {
		t.Fatalf("read executed on %d replicas, want 1", db.Completed())
	}
}

func TestRAIDbWriteBroadcasts(t *testing.T) {
	k := NewKernel(1)
	db := makeRAIDb(k, 3)
	var completions int
	db.Write(1.0, func(ok bool, _, _ float64) {
		completions++
		if !ok {
			t.Errorf("write should succeed")
		}
	})
	k.Run(10)
	if completions != 1 {
		t.Fatalf("done fired %d times, want exactly once", completions)
	}
	if db.Completed() != 3 {
		t.Fatalf("write executed on %d replicas, want 3", db.Completed())
	}
}

func TestRAIDbWriteWaitsForSlowest(t *testing.T) {
	k := NewKernel(1)
	// Two replicas at different speeds: write completes at the slower one.
	fast := NewStation(k, StationConfig{Name: "DB1", Servers: 1, Speed: 1, Deterministic: true})
	slow := NewStation(k, StationConfig{Name: "DB2", Servers: 1, Speed: 0.5, Deterministic: true})
	db := NewRAIDb(k, RoundRobin, []*Station{fast, slow})
	var doneAt float64
	db.Write(1.0, func(bool, float64, float64) { doneAt = k.Now() })
	k.Run(10)
	if math.Abs(doneAt-2.0) > 1e-9 {
		t.Fatalf("write completed at %g, want 2.0 (slowest replica)", doneAt)
	}
}

func TestRAIDbWriteRejectionPropagates(t *testing.T) {
	k := NewKernel(1)
	down := NewStation(k, StationConfig{Name: "DB1", Servers: 1, Speed: 1, Deterministic: true})
	ok1 := NewStation(k, StationConfig{Name: "DB2", Servers: 1, Speed: 1, Deterministic: true})
	db := NewRAIDb(k, RoundRobin, []*Station{down, ok1})
	down.Fail()
	var gotOK *bool
	db.Write(1.0, func(ok bool, _, _ float64) { gotOK = &ok })
	k.Run(10)
	if gotOK == nil {
		t.Fatalf("write never completed")
	}
	if *gotOK {
		t.Fatalf("write with a rejecting replica should report failure")
	}
}

func TestRAIDbReadBalancing(t *testing.T) {
	k := NewKernel(1)
	db := makeRAIDb(k, 2)
	for i := 0; i < 6; i++ {
		db.Read(10.0, func(bool, float64, float64) {})
	}
	for i, rep := range db.Replicas() {
		if rep.InFlight() != 3 {
			t.Fatalf("replica %d holds %d reads, want 3", i, rep.InFlight())
		}
	}
}

func TestRAIDbResetAndString(t *testing.T) {
	k := NewKernel(1)
	db := makeRAIDb(k, 2)
	db.Read(1.0, func(bool, float64, float64) {})
	k.Run(10)
	db.ResetAccounting()
	if db.Completed() != 0 {
		t.Fatalf("reset did not clear replica counters")
	}
	if !strings.Contains(db.String(), "RAIDb-1[2 replicas") {
		t.Fatalf("string = %q", db.String())
	}
	if db.Size() != 2 {
		t.Fatalf("size = %d", db.Size())
	}
}

func TestRAIDbPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for empty RAIDb")
		}
	}()
	NewRAIDb(NewKernel(1), RoundRobin, nil)
}

// TestRAIDbScaleOutCapacity verifies the RAIDb-1 capacity law the design
// relies on: with write fraction w, d replicas multiply read capacity but
// every replica pays for every write. We drive an open stream of
// operations and compare per-replica busy time against the analytic
// w·Dw + (1−w)·Dr/d per request.
func TestRAIDbScaleOutCapacity(t *testing.T) {
	const (
		reqs = 3000
		w    = 0.15
		dr   = 0.004
		dw   = 0.008
	)
	for _, d := range []int{1, 2, 3} {
		k := NewKernel(11)
		db := makeRAIDb(k, d)
		for i := 0; i < reqs; i++ {
			if i%100 < int(w*100) {
				db.Write(dw, func(bool, float64, float64) {})
			} else {
				db.Read(dr, func(bool, float64, float64) {})
			}
		}
		k.Run(1e9)
		var busy float64
		for _, rep := range db.Replicas() {
			busy += rep.BusyTime()
		}
		perReplica := busy / float64(d) / reqs
		analytic := w*dw + (1-w)*dr/float64(d)
		if math.Abs(perReplica-analytic)/analytic > 0.02 {
			t.Errorf("d=%d: per-replica demand %.6f, analytic %.6f", d, perReplica, analytic)
		}
	}
}

// Completed sums completed queries across replicas, including retired
// ones (their work happened and still counts).
func (r *RAIDb) Completed() int64 {
	var n int64
	for _, s := range r.replicas {
		n += s.Completed()
	}
	for _, s := range r.retired {
		n += s.Completed()
	}
	return n
}
