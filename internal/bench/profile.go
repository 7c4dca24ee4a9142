package bench

import (
	"fmt"
	"math/rand/v2"

	"elba/internal/sim"
)

// Profile is a complete benchmark workload model: a transition matrix plus
// a mean think time. It implements sim.Model.
type Profile struct {
	name   string
	matrix *TransitionMatrix
	think  float64
}

// NewProfile assembles a workload model. think is the mean think time in
// seconds.
func NewProfile(name string, m *TransitionMatrix, think float64) (*Profile, error) {
	if m == nil || m.Len() == 0 {
		return nil, fmt.Errorf("bench: profile %q needs a transition matrix", name)
	}
	if think < 0 {
		return nil, fmt.Errorf("bench: profile %q has negative think time", name)
	}
	return &Profile{name: name, matrix: m, think: think}, nil
}

// Name identifies the benchmark and variant.
func (p *Profile) Name() string { return p.name }

// ThinkTime reports the mean think time in seconds.
func (p *Profile) ThinkTime() float64 { return p.think }

// Matrix exposes the transition matrix for analysis and reporting.
func (p *Profile) Matrix() *TransitionMatrix { return p.matrix }

// Interactions lists the distinct interaction types.
func (p *Profile) Interactions() []sim.Interaction { return p.matrix.States() }

// markovSession walks the profile's transition matrix.
type markovSession struct {
	m     *TransitionMatrix
	state int
}

// NewSession creates a user session starting in a stationary-weighted
// random state, so short measurement windows are not biased by a fixed
// entry page.
func (p *Profile) NewSession(rng *rand.Rand) sim.Session {
	return &markovSession{m: p.matrix, state: rng.IntN(p.matrix.Len())}
}

// Next advances the Markov chain and returns the state entered, which
// indexes the interaction performed in Interactions.
func (s *markovSession) Next(rng *rand.Rand) int {
	s.state = s.m.Next(s.state, rng)
	return s.state
}

// MeanDemands reports the stationary mean per-tier demands of the profile,
// used by calibration tests and capacity reports: these are the D values
// in the closed-network saturation law N* ≈ c·(Z+R)/D.
func (p *Profile) MeanDemands() (web, app, db float64) {
	pi := p.matrix.Stationary()
	for j, s := range p.matrix.States() {
		web += pi[j] * s.WebDemand
		app += pi[j] * s.AppDemand
		db += pi[j] * s.DBDemand
	}
	return web, app, db
}

// MeanBytes reports the stationary mean request and reply sizes, which
// the monitoring layer uses for network-I/O accounting.
func (p *Profile) MeanBytes() (request, reply float64) {
	pi := p.matrix.Stationary()
	for j, s := range p.matrix.States() {
		request += pi[j] * float64(s.RequestBytes)
		reply += pi[j] * float64(s.ReplyBytes)
	}
	return request, reply
}

// DemandTargets are conditional per-class mean demands used to calibrate a
// state table against measured or published service times. All values are
// CPU seconds at the reference frequency.
type DemandTargets struct {
	// Web is the mean web-tier demand for every interaction.
	Web float64
	// ReadApp and WriteApp are mean app-tier demands conditioned on the
	// interaction class.
	ReadApp  float64
	WriteApp float64
	// ReadDB and WriteDB are mean DB demands conditioned on class.
	ReadDB  float64
	WriteDB float64
}

// Calibrate rescales the states' demands in place so that the
// stationary conditional means under matrix m equal the targets, while
// preserving each interaction's relative weight within its class. A class
// with zero stationary mass (e.g. write states at write ratio 0) is left
// unscaled: its demands cannot affect the workload. It returns an error
// when a class with mass has zero current demand, which would make the
// target unreachable.
func Calibrate(m *TransitionMatrix, t DemandTargets) error {
	pi := m.Stationary()
	states := m.States()
	var readMass, writeMass float64
	var readApp, writeApp, readDB, writeDB, webMean float64
	for j, s := range states {
		if s.Write {
			writeMass += pi[j]
			writeApp += pi[j] * s.AppDemand
			writeDB += pi[j] * s.DBDemand
		} else {
			readMass += pi[j]
			readApp += pi[j] * s.AppDemand
			readDB += pi[j] * s.DBDemand
		}
		webMean += pi[j] * s.WebDemand
	}
	scale := func(current, mass, target float64, class string) (float64, error) {
		if mass == 0 {
			return 1, nil
		}
		mean := current / mass
		if mean <= 0 {
			if target == 0 {
				return 1, nil
			}
			return 0, fmt.Errorf("bench: cannot calibrate %s demands: current mean is zero", class)
		}
		return target / mean, nil
	}
	ra, err := scale(readApp, readMass, t.ReadApp, "read app")
	if err != nil {
		return err
	}
	wa, err := scale(writeApp, writeMass, t.WriteApp, "write app")
	if err != nil {
		return err
	}
	rd, err := scale(readDB, readMass, t.ReadDB, "read db")
	if err != nil {
		return err
	}
	wd, err := scale(writeDB, writeMass, t.WriteDB, "write db")
	if err != nil {
		return err
	}
	wb, err := scale(webMean, 1, t.Web, "web")
	if err != nil {
		return err
	}
	for j := range states {
		states[j].WebDemand *= wb
		if states[j].Write {
			states[j].AppDemand *= wa
			states[j].DBDemand *= wd
		} else {
			states[j].AppDemand *= ra
			states[j].DBDemand *= rd
		}
	}
	return nil
}
