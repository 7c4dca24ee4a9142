package fluid

import (
	"math"
	"math/rand/v2"
	"testing"

	"elba/internal/bench/rubbos"
)

// The reference: a window's mixture as a list of branches, each
// evaluated on its own with its own exponentials. The solver's mixture
// shares one exponential per distinct rate across branches and must agree
// with this bit for bit.

// refBranch is one hypoexponential branch of a reference mixture.
type refBranch struct {
	weight  float64
	rates   []float64 // distinct exponential stage rates
	alphas  []float64 // hypoexponential CDF coefficients
	expMean float64   // Σ 1/rate
}

// hypoAlphas returns the coefficients of the hypoexponential CDF
// F(t) = 1 − Σ αᵢ e^(−λᵢ t) for distinct rates λ.
func hypoAlphas(rates []float64) []float64 {
	alphas := make([]float64, len(rates))
	for i, li := range rates {
		a := 1.0
		for j, lj := range rates {
			if j != i {
				a *= lj / (lj - li)
			}
		}
		alphas[i] = a
	}
	return alphas
}

// hypoCDF evaluates the hypoexponential CDF at x ≥ 0. An empty stage list
// is a point mass at zero.
func hypoCDF(rates, alphas []float64, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if len(rates) == 0 {
		return 1
	}
	f := 1.0
	for i, r := range rates {
		f -= alphas[i] * math.Exp(-r*x)
	}
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// refWindow expands classes into one branch per class and subset of
// waiting tiers, each with its own copy of the stage rates. Without
// waiting tiers the branches are the classes themselves.
func refWindow(classes []classDist, waitStages [][]float64, waitProb []float64) []refBranch {
	var out []refBranch
	for _, c := range classes {
		if len(waitStages) == 0 {
			out = append(out, refBranch{weight: c.weight, rates: c.rates, alphas: hypoAlphas(c.rates), expMean: c.expMean})
			continue
		}
		for sub := 0; sub < 1<<len(waitStages); sub++ {
			weight := c.weight
			rates := append([]float64(nil), c.rates...)
			for j := range waitStages {
				if sub&(1<<j) != 0 {
					weight *= waitProb[j]
					rates = append(rates, waitStages[j]...)
				} else {
					weight *= 1 - waitProb[j]
				}
			}
			if weight <= 0 {
				continue
			}
			rates = distinctRates(rates)
			b := refBranch{weight: weight, rates: rates, alphas: hypoAlphas(rates)}
			for _, r := range rates {
				b.expMean += 1 / r
			}
			out = append(out, b)
		}
	}
	return out
}

// mixtureCDF evaluates the weighted reference mixture CDF at x.
func mixtureCDF(branches []refBranch, x float64) float64 {
	if x <= 0 {
		return 0
	}
	f := 0.0
	for _, b := range branches {
		f += b.weight * hypoCDF(b.rates, b.alphas, x)
	}
	return f
}

// mixtureQuantile inverts the reference mixture CDF by bisection, with
// the early exit once the midpoint equals a bracket end.
func mixtureQuantile(branches []refBranch, p float64) float64 {
	return bisect(branches, p, true)
}

// fixedBisection is mixtureQuantile without its early exit: the doubling
// and 100-step bisection run to their fixed counts.
func fixedBisection(branches []refBranch, p float64) float64 {
	return bisect(branches, p, false)
}

func bisect(branches []refBranch, p float64, early bool) float64 {
	if p <= 0 {
		return 0
	}
	hi := 1e-6
	for _, b := range branches {
		if m := b.expMean * 4; m > hi {
			hi = m
		}
	}
	for i := 0; i < 200 && mixtureCDF(branches, hi) < p; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if early && (mid == lo || mid == hi) {
			return mid
		}
		if mixtureCDF(branches, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// randomWindow draws a window the way windowMixture builds one: 1–6
// classes of 0–8 service stages (a class with none is a point mass at
// zero) weighted to sum to total, plus 0–3 waiting tiers whose stages
// come from waitDist. Stage means come from a small pool, so classes and
// waiting tiers share rates and distinctRates has duplicates to perturb.
func randomWindow(rng *rand.Rand, total float64) ([]classDist, [][]float64, []float64) {
	pool := make([]float64, 3+rng.IntN(6))
	for i := range pool {
		pool[i] = math.Pow(10, -5+6*rng.Float64())
	}
	classes := make([]classDist, 1+rng.IntN(6))
	var wsum float64
	for i := range classes {
		var rates []float64
		if i > 0 || rng.IntN(4) != 0 {
			rates = make([]float64, 1+rng.IntN(8))
		}
		for j := range rates {
			rates[j] = 1 / pool[rng.IntN(len(pool))]
		}
		c := classDist{weight: rng.Float64() + 1e-3, rates: distinctRates(rates)}
		for _, r := range c.rates {
			c.expMean += 1 / r
		}
		classes[i] = c
		wsum += c.weight
	}
	for i := range classes {
		classes[i].weight *= total / wsum
	}
	var stages [][]float64
	var probs []float64
	for n := rng.IntN(numTiers + 1); n > 0; n-- {
		// Shapes up to 10 reach every waitDist case: one stage, a
		// two-stage fit, and the Erlang-like spread.
		stages = append(stages, waitDist(pool[rng.IntN(len(pool))], 1+9*rng.Float64()))
		p := 1e-3 + (1-1e-3)*rng.Float64()
		if rng.IntN(8) == 0 {
			p = 1 // drops every branch that skips this tier's wait
		}
		probs = append(probs, p)
	}
	return classes, stages, probs
}

// checkMixture requires m, built from the window, to match the reference
// bit for bit: the CDF at random and edge points, and the quantiles the
// solver asks for plus a random one.
func checkMixture(t *testing.T, rng *rand.Rand, m *mixture, ref []refBranch, pMax float64) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: mixture %v (%#x), per-branch reference %v (%#x)",
				what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if len(m.branches) != len(ref) {
		t.Fatalf("mixture has %d branches, reference %d", len(m.branches), len(ref))
	}
	hi := 1e-6
	for _, b := range ref {
		hi = math.Max(hi, 4*b.expMean)
	}
	for _, x := range []float64{-1, 0, 1e-9, hi * rng.Float64(), hi, 4 * hi * rng.Float64(), 1e6} {
		same("cdf", m.cdf(x), mixtureCDF(ref, x))
	}
	for _, p := range []float64{0, 0.5, 0.9, 0.99, pMax, rng.Float64()} {
		same("quantile", m.quantile(p), mixtureQuantile(ref, p))
	}
}

// TestMixtureMatchesPerBranchReference checks the shared-rate mixture
// against the per-branch reference on random windows.
func TestMixtureMatchesPerBranchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	var m mixture
	var waited, empty int
	for trial := 0; trial < 2000; trial++ {
		classes, stages, probs := randomWindow(rng, 1)
		m.build(classes, stages, probs)
		ref := refWindow(classes, stages, probs)
		if len(stages) > 0 && len(m.rates) < len(m.terms) {
			waited++
		}
		if len(classes[0].rates) == 0 {
			empty++
		}
		checkMixture(t, rng, &m, ref, 1-1e-12)
	}
	if waited < 1000 || empty < 100 {
		t.Fatalf("coverage: %d windows shared rates across branches, %d had a point-mass class", waited, empty)
	}
}

// TestMixtureQuantileMatchesFixedBisection checks the early exit is
// bit-identical to running the bisection to its fixed count, on random
// mixtures at the quantiles the solver asks for and at random ones.
func TestMixtureQuantileMatchesFixedBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var m mixture
	check := func(ref []refBranch, p float64) {
		t.Helper()
		got, want := m.quantile(p), fixedBisection(ref, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%v over %d branches: early exit %v (%#x), fixed bisection %v (%#x)",
				p, len(ref), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 500; trial++ {
		classes, stages, probs := randomWindow(rng, 1)
		m.build(classes, stages, probs)
		ref := refWindow(classes, stages, probs)
		for _, p := range []float64{0.5, 0.9, 0.99, 1 - 1e-12, rng.Float64(), 1} {
			check(ref, p)
		}
	}

	// Weights summing to 0.5 cap the CDF below p = 0.9, so all 200
	// doublings run out and the bisection climbs to the top of the bracket.
	classes, _, _ := randomWindow(rng, 0.5)
	m.build(classes, nil, nil)
	ref := refWindow(classes, nil, nil)
	hi := 1e-6
	for _, c := range classes {
		hi = math.Max(hi, 4*c.expMean)
	}
	if q := m.quantile(0.9); q < hi*math.Pow(2, 199) {
		t.Fatalf("capped mixture: quantile %v, want the exhausted bracket near %v", q, hi*math.Pow(2, 200))
	}
	check(ref, 0.9)
}

// rubbosConfig is the RUBBoS submission mix (15% writes) on one-core
// nodes, with a 2 s client timeout.
func rubbosConfig(tb testing.TB, sessions int) Config {
	tb.Helper()
	model, err := rubbos.NewSubmission(0.15)
	if err != nil {
		tb.Fatal(err)
	}
	node := NodeSpec{Cores: 1, Speed: 1}
	cfg := Config{
		Sessions:   sessions,
		ThinkSec:   model.ThinkTime(),
		TimeoutSec: 2,
		Web:        TierSpec{Name: "web", Nodes: []NodeSpec{node}},
		App:        TierSpec{Name: "app", Nodes: []NodeSpec{node}},
		DB:         TierSpec{Name: "db", Nodes: []NodeSpec{node}},
	}
	pi := model.Matrix().Stationary()
	for j, s := range model.Interactions() {
		cfg.Classes = append(cfg.Classes, Class{
			Name: s.Name, Weight: pi[j],
			Web: s.WebDemand, App: s.AppDemand, DB: s.DBDemand,
			Write: s.Write,
		})
	}
	return cfg
}

// TestSolverWindowsMatchReference steps a RUBBoS submission solver from
// idle through deep overload, scaling the database to two replicas
// halfway (which rebuilds the class distributions), and checks every
// window's stored statistics against the per-branch reference bit for
// bit.
func TestSolverWindowsMatchReference(t *testing.T) {
	s, err := New(rubbosConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 9))
	same := func(win int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d %s: %v (%#x), reference %v (%#x)",
				win, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var subKnee, overload int
	prev := s.Snapshot()
	for win := 0; win < 60; win++ {
		s.SetSessions(win * 400)
		if win == 30 {
			s.SetTierNodes(TierDB, 2)
		}
		s.Advance(s.Now() + 5)
		snap := s.Snapshot()
		st := s.StatsBetween(prev, snap)
		comps := snap.Done - prev.Done
		if comps <= 1e-12 {
			prev = snap
			continue
		}
		lam := comps / st.DurationSec
		waits, pWait := s.windowWaits(prev, snap, comps, lam)
		var stages [][]float64
		var probs []float64
		for i, w := range waits {
			if w > 1e-12 {
				stages = append(stages, waitDist(w/pWait[i], 1+lam*w/pWait[i]/4))
				probs = append(probs, pWait[i])
			}
		}
		if len(stages) == numTiers && st.TimeoutFraction > 0 {
			overload++
		} else if st.TimeoutFraction == 0 {
			subKnee++
		}
		ref := refWindow(s.classes, stages, probs)
		shift := s.detSvc
		timeoutFrac := 1 - mixtureCDF(ref, s.cfg.TimeoutSec-shift)
		if timeoutFrac < 1e-12 {
			timeoutFrac = 0
		}
		same(win, "timeout fraction", st.TimeoutFraction, timeoutFrac)
		same(win, "p50", st.P50ms, (shift+mixtureQuantile(ref, 0.50))*1000)
		same(win, "p90", st.P90ms, (shift+mixtureQuantile(ref, 0.90))*1000)
		same(win, "p99", st.P99ms, (shift+mixtureQuantile(ref, 0.99))*1000)
		n := math.Max(math.Round(comps), 1)
		pMax := math.Min((n-0.5)/n, 1-1e-12)
		same(win, "max", st.MaxRTms, (shift+mixtureQuantile(ref, pMax))*1000)
		checkMixture(t, rng, &s.mix, ref, pMax)
		prev = snap
	}
	if subKnee == 0 || overload == 0 {
		t.Fatalf("coverage: %d sub-knee windows, %d timing out with three waiting tiers", subKnee, overload)
	}
}

// BenchmarkStatsBetween measures one saturated RUBBoS submission window,
// in which all three tiers impose a wait.
func BenchmarkStatsBetween(b *testing.B) {
	s, err := New(rubbosConfig(b, 20000))
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(60)
	a := s.Snapshot()
	s.Advance(65)
	z := s.Snapshot()
	if w := s.StatsBetween(a, z).TierWaitSec; w[TierWeb] <= 1e-12 || w[TierApp] <= 1e-12 || w[TierDB] <= 1e-12 {
		b.Fatalf("window waits %v: want all three tiers waiting", w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = s.StatsBetween(a, z)
	}
}

// statsSink keeps the benchmarked call from being optimized away.
var statsSink Stats
