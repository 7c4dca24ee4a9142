// Package bench provides the machinery shared by Elba's benchmark
// workload models: first-order Markov transition matrices over interaction
// states, write-ratio reweighting (the paper varies RUBiS's write ratio
// from 0% to 90%), stationary-distribution analysis, and demand
// calibration against per-tier targets.
package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"elba/internal/sim"
)

// TransitionMatrix is a row-stochastic matrix over a benchmark's
// interaction states: P[i][j] is the probability that a user in state i
// performs interaction j next. Its rows never change after
// NewTransitionMatrix, so one matrix may serve concurrent trials.
type TransitionMatrix struct {
	states []sim.Interaction
	p      [][]float64

	stationaryOnce sync.Once
	stationary     []float64
}

// NewTransitionMatrix builds a matrix over states from rows of
// probabilities. Rows are normalized; a row summing to zero is an error.
func NewTransitionMatrix(states []sim.Interaction, rows [][]float64) (*TransitionMatrix, error) {
	n := len(states)
	if n == 0 {
		return nil, fmt.Errorf("bench: transition matrix needs at least one state")
	}
	if len(rows) != n {
		return nil, fmt.Errorf("bench: %d rows for %d states", len(rows), n)
	}
	p := make([][]float64, n)
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("bench: row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("bench: row %d col %d has invalid probability %g", i, j, v)
			}
			sum += v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("bench: row %d (state %s) sums to zero", i, states[i].Name)
		}
		p[i] = make([]float64, n)
		for j, v := range row {
			p[i][j] = v / sum
		}
	}
	return &TransitionMatrix{states: states, p: p}, nil
}

// States returns the interaction states (shared, not copied).
func (m *TransitionMatrix) States() []sim.Interaction { return m.states }

// Len reports the number of states.
func (m *TransitionMatrix) Len() int { return len(m.states) }

// Next samples the successor state of i using rng.
func (m *TransitionMatrix) Next(i int, rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	row := m.p[i]
	for j, v := range row {
		cum += v
		if u < cum {
			return j
		}
	}
	return len(row) - 1 // float residue lands on the last state
}

// Reweight returns a copy of the matrix whose every row has exactly
// writeRatio probability mass on write interactions, preserving the
// relative structure of the original transitions within the read and
// write classes. This is how one base matrix (the RUBiS bidding mix)
// yields the paper's 0%–90% write-ratio sweep.
//
// If a row has no write-successor mass and writeRatio > 0, the write mass
// is spread uniformly over all write states (symmetrically for reads).
func (m *TransitionMatrix) Reweight(writeRatio float64) (*TransitionMatrix, error) {
	if writeRatio < 0 || writeRatio > 1 {
		return nil, fmt.Errorf("bench: write ratio %g out of [0,1]", writeRatio)
	}
	var writeStates, readStates []int
	for j, s := range m.states {
		if s.Write {
			writeStates = append(writeStates, j)
		} else {
			readStates = append(readStates, j)
		}
	}
	if writeRatio > 0 && len(writeStates) == 0 {
		return nil, fmt.Errorf("bench: write ratio %g requested but model has no write states", writeRatio)
	}
	if writeRatio < 1 && len(readStates) == 0 {
		return nil, fmt.Errorf("bench: read mass requested but model has no read states")
	}
	n := len(m.states)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		var wm, rm float64
		for j, v := range m.p[i] {
			if m.states[j].Write {
				wm += v
			} else {
				rm += v
			}
		}
		for j, v := range m.p[i] {
			switch {
			case m.states[j].Write && wm > 0:
				row[j] = v * writeRatio / wm
			case !m.states[j].Write && rm > 0:
				row[j] = v * (1 - writeRatio) / rm
			}
		}
		if wm == 0 && writeRatio > 0 {
			for _, j := range writeStates {
				row[j] = writeRatio / float64(len(writeStates))
			}
		}
		if rm == 0 && writeRatio < 1 {
			for _, j := range readStates {
				row[j] = (1 - writeRatio) / float64(len(readStates))
			}
		}
		rows[i] = row
	}
	return NewTransitionMatrix(m.states, rows)
}

// Stationary returns the stationary distribution (shared, not copied).
// It depends only on the rows, so it is computed once, on first use.
func (m *TransitionMatrix) Stationary() []float64 {
	m.stationaryOnce.Do(func() { m.stationary = m.powerIterate() })
	return m.stationary
}

// powerIterate computes the stationary distribution by power iteration.
// The matrices our benchmarks build are irreducible and aperiodic, so the
// iteration converges; iteration is capped defensively.
func (m *TransitionMatrix) powerIterate() []float64 {
	n := len(m.states)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j, v := range m.p[i] {
				next[j] += pi[i] * v
			}
		}
		var delta float64
		for j := range next {
			delta += math.Abs(next[j] - pi[j])
		}
		pi, next = next, pi
		if delta < 1e-12 {
			break
		}
	}
	return pi
}

// WriteFraction reports the stationary probability of being in a write
// state.
func (m *TransitionMatrix) WriteFraction() float64 {
	pi := m.Stationary()
	var w float64
	for j, s := range m.states {
		if s.Write {
			w += pi[j]
		}
	}
	return w
}
