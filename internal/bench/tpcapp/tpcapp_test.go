package tpcapp

import (
	"math/rand/v2"
	"testing"
)

// NumInteractions is the number of modelled TPC-App operations.
const NumInteractions = 8

func TestNewBuilds(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Interactions()) != NumInteractions {
		t.Fatalf("interactions = %d, want %d", len(p.Interactions()), NumInteractions)
	}
	if p.ThinkTime() != ThinkTime {
		t.Fatalf("think time = %g", p.ThinkTime())
	}
}

func TestWriteHeavyMix(t *testing.T) {
	// TPC-App's order-processing mix is write-dominated, unlike RUBiS.
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if wf := p.Matrix().WriteFraction(); wf < 0.5 {
		t.Fatalf("write fraction = %g, want >= 0.5", wf)
	}
}

func TestSessionCoversOperations(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	sess, ixs := p.NewSession(rng), p.Interactions()
	seen := map[string]bool{}
	for i := 0; i < 50000; i++ {
		seen[ixs[sess.Next(rng)].Name] = true
	}
	if len(seen) != NumInteractions {
		t.Fatalf("visited %d/%d operations", len(seen), NumInteractions)
	}
}
