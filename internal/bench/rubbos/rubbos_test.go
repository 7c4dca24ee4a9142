package rubbos

import (
	"math"
	"math/rand/v2"
	"testing"
)

// NumInteractions is the number of RUBBoS interaction states.
const NumInteractions = 24

func TestInteractionCount(t *testing.T) {
	p, err := NewSubmission(DefaultWriteRatio)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Interactions()); got != NumInteractions {
		t.Fatalf("interactions = %d, want %d (paper §III.B)", got, NumInteractions)
	}
	writes := 0
	for _, it := range p.Interactions() {
		if it.Write {
			writes++
		}
	}
	if writes != 6 {
		t.Fatalf("write interactions = %d, want 6", writes)
	}
}

func TestReadOnlyIssuesNoWrites(t *testing.T) {
	p, err := NewReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	sess, ixs := p.NewSession(rng), p.Interactions()
	for i := 0; i < 30000; i++ {
		if it := ixs[sess.Next(rng)]; it.Write {
			t.Fatalf("read-only mix issued write %s", it.Name)
		}
	}
}

func TestSubmissionWriteFraction(t *testing.T) {
	p, err := NewSubmission(0.15)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Matrix().WriteFraction(); math.Abs(got-0.15) > 1e-9 {
		t.Fatalf("write fraction = %g, want 0.15", got)
	}
}

func TestSubmissionValidatesRatio(t *testing.T) {
	for _, w := range []float64{0, -0.1, 0.6} {
		if _, err := NewSubmission(w); err == nil {
			t.Errorf("ratio %g should be rejected", w)
		}
	}
}

// TestReadOnlyHeavierOnDB is the core Figure 4 property: the read-only
// mix must place more demand on the database per interaction than the
// 85/15 submission mix, so it saturates at a lower workload.
func TestReadOnlyHeavierOnDB(t *testing.T) {
	ro, err := NewReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubmission(DefaultWriteRatio)
	if err != nil {
		t.Fatal(err)
	}
	_, _, dbRO := ro.MeanDemands()
	_, _, dbSub := sub.MeanDemands()
	if dbRO <= dbSub {
		t.Fatalf("read-only DB demand %.6f not heavier than mix %.6f", dbRO, dbSub)
	}
	if ratio := dbRO / dbSub; ratio < 1.3 {
		t.Fatalf("demand ratio %.2f too small to reproduce Figure 4's gap", ratio)
	}
}

// TestDBIsTheBottleneckTier verifies the benchmark's character (paper
// §IV.C): database demand must dominate the front tiers after accounting
// for the slower DB node (600 MHz vs 3 GHz = 5× demand inflation).
func TestDBIsTheBottleneckTier(t *testing.T) {
	for _, build := range []func() (interface {
		MeanDemands() (float64, float64, float64)
	}, error){
		func() (interface {
			MeanDemands() (float64, float64, float64)
		}, error) {
			return NewReadOnly()
		},
		func() (interface {
			MeanDemands() (float64, float64, float64)
		}, error) {
			return NewSubmission(DefaultWriteRatio)
		},
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		web, app, db := p.MeanDemands()
		effectiveDB := db / 0.2 // low-end Emulab node
		if effectiveDB <= app || effectiveDB <= web {
			t.Fatalf("DB not the bottleneck: web=%.5f app=%.5f db(eff)=%.5f", web, app, effectiveDB)
		}
	}
}

func TestSubmissionReachesWriteStates(t *testing.T) {
	p, err := NewSubmission(0.15)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	sess, ixs := p.NewSession(rng), p.Interactions()
	writes := 0
	n := 100000
	for i := 0; i < n; i++ {
		if ixs[sess.Next(rng)].Write {
			writes++
		}
	}
	got := float64(writes) / float64(n)
	if math.Abs(got-0.15) > 0.01 {
		t.Fatalf("empirical write fraction = %g, want ≈0.15", got)
	}
}

func TestProfileNames(t *testing.T) {
	ro, _ := NewReadOnly()
	if ro.Name() != "rubbos/read-only" {
		t.Fatalf("name = %q", ro.Name())
	}
	sub, _ := NewSubmission(0.15)
	if sub.Name() != "rubbos/submission/w=15%" {
		t.Fatalf("name = %q", sub.Name())
	}
}
