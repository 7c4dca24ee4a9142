package bench

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"elba/internal/sim"
)

func twoStateStates() []sim.Interaction {
	return []sim.Interaction{
		{Name: "read", Write: false, AppDemand: 0.03, DBDemand: 0.001, WebDemand: 0.001},
		{Name: "write", Write: true, AppDemand: 0.005, DBDemand: 0.002, WebDemand: 0.001},
	}
}

func TestNewTransitionMatrixNormalizes(t *testing.T) {
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{3, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.p[0][0]-0.75) > 1e-12 || math.Abs(m.p[0][1]-0.25) > 1e-12 {
		t.Fatalf("row 0 not normalized: %g %g", m.p[0][0], m.p[0][1])
	}
}

func TestNewTransitionMatrixErrors(t *testing.T) {
	states := twoStateStates()
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"wrong row count", [][]float64{{1, 0}}},
		{"wrong col count", [][]float64{{1}, {1, 0}}},
		{"negative prob", [][]float64{{-1, 2}, {1, 1}}},
		{"zero row", [][]float64{{0, 0}, {1, 1}}},
		{"NaN", [][]float64{{math.NaN(), 1}, {1, 1}}},
	}
	for _, c := range cases {
		if _, err := NewTransitionMatrix(states, c.rows); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewTransitionMatrix(nil, nil); err == nil {
		t.Errorf("empty states: expected error")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// P = [[0.5, 0.5], [1, 0]] has stationary (2/3, 1/3).
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{1, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pi := m.Stationary()
	if math.Abs(pi[0]-2.0/3.0) > 1e-9 || math.Abs(pi[1]-1.0/3.0) > 1e-9 {
		t.Fatalf("stationary = %v, want (2/3, 1/3)", pi)
	}
	if wf := m.WriteFraction(); math.Abs(wf-1.0/3.0) > 1e-9 {
		t.Fatalf("write fraction = %g, want 1/3", wf)
	}
}

func TestReweightExactWriteMass(t *testing.T) {
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{4, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, 0.15, 0.5, 0.9, 1} {
		rw, err := m.Reweight(w)
		if err != nil {
			t.Fatalf("w=%g: %v", w, err)
		}
		for i := 0; i < rw.Len(); i++ {
			if got := rw.RowWriteMass(i); math.Abs(got-w) > 1e-12 {
				t.Fatalf("w=%g row %d write mass %g", w, i, got)
			}
		}
		if wf := rw.WriteFraction(); math.Abs(wf-w) > 1e-9 {
			t.Fatalf("w=%g stationary write fraction %g", w, wf)
		}
	}
}

func TestReweightRangeErrors(t *testing.T) {
	m, _ := NewTransitionMatrix(twoStateStates(), [][]float64{{1, 1}, {1, 1}})
	if _, err := m.Reweight(-0.1); err == nil {
		t.Errorf("negative ratio should error")
	}
	if _, err := m.Reweight(1.1); err == nil {
		t.Errorf("ratio > 1 should error")
	}
	// No write states but write ratio requested.
	readsOnly := []sim.Interaction{{Name: "a"}, {Name: "b"}}
	m2, _ := NewTransitionMatrix(readsOnly, [][]float64{{1, 1}, {1, 1}})
	if _, err := m2.Reweight(0.5); err == nil {
		t.Errorf("write ratio without write states should error")
	}
}

func TestReweightFillsMissingClassMass(t *testing.T) {
	// Row 0 never transitions to the write state; after reweighting it
	// must still put exactly w there.
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{1, 0}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := m.Reweight(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rw.RowWriteMass(0); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("missing write mass not filled: %g", got)
	}
}

func TestNextSamplingMatchesDistribution(t *testing.T) {
	m, err := NewTransitionMatrix(twoStateStates(), [][]float64{{7, 3}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	n := 100000
	counts := make([]int, 2)
	for i := 0; i < n; i++ {
		counts[m.Next(0, rng)]++
	}
	got := float64(counts[1]) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("empirical P(0→1) = %g, want 0.3", got)
	}
}

// Property: any valid reweight keeps every row stochastic.
func TestReweightRowsStochasticProperty(t *testing.T) {
	f := func(seed uint64, wRaw float64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 2 + rng.IntN(6)
		states := make([]sim.Interaction, n)
		for i := range states {
			states[i].Name = string(rune('A' + i))
			states[i].Write = i%3 == 0
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64()
			}
		}
		m, err := NewTransitionMatrix(states, rows)
		if err != nil {
			return true // degenerate random matrix; skip
		}
		w := math.Mod(math.Abs(wRaw), 1)
		rw, err := m.Reweight(w)
		if err != nil {
			return false
		}
		for i := 0; i < rw.Len(); i++ {
			var sum float64
			for j := 0; j < rw.Len(); j++ {
				sum += rw.p[i][j]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// RowWriteMass reports the probability that the successor of state i is a
// write interaction.
func (m *TransitionMatrix) RowWriteMass(i int) float64 {
	var w float64
	for j, v := range m.p[i] {
		if m.states[j].Write {
			w += v
		}
	}
	return w
}
