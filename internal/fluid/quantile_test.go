package fluid

import (
	"math"
	"math/rand/v2"
	"testing"
)

// fixedBisection is mixtureQuantile without its early exit: the doubling
// and 100-step bisection run to their fixed counts.
func fixedBisection(classes []classDist, p float64) float64 {
	if p <= 0 {
		return 0
	}
	hi := 1e-6
	for _, c := range classes {
		if m := c.expMean * 4; m > hi {
			hi = m
		}
	}
	for i := 0; i < 200 && mixtureCDF(classes, hi) < p; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mixtureCDF(classes, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// randomMixture draws 1–6 classes of 1–8 hypoexponential stages with
// service means spread over six decades, weighted to sum to total.
func randomMixture(rng *rand.Rand, total float64) []classDist {
	classes := make([]classDist, 1+rng.IntN(6))
	var wsum float64
	for i := range classes {
		rates := make([]float64, 1+rng.IntN(8))
		for j := range rates {
			rates[j] = 1 / math.Pow(10, -5+6*rng.Float64())
		}
		rates = distinctRates(rates)
		c := classDist{weight: rng.Float64() + 1e-3, rates: rates, alphas: hypoAlphas(rates)}
		for _, r := range rates {
			c.expMean += 1 / r
		}
		classes[i] = c
		wsum += c.weight
	}
	for i := range classes {
		classes[i].weight *= total / wsum
	}
	return classes
}

// TestMixtureQuantileMatchesFixedBisection checks the early exit is
// bit-identical to running the bisection to its fixed count, on random
// mixtures at the quantiles the solver asks for and at random ones.
func TestMixtureQuantileMatchesFixedBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	check := func(classes []classDist, p float64) {
		t.Helper()
		got, want := mixtureQuantile(classes, p), fixedBisection(classes, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%v over %d classes: early exit %v (%#x), fixed bisection %v (%#x)",
				p, len(classes), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 500; trial++ {
		classes := randomMixture(rng, 1)
		for _, p := range []float64{0.5, 0.9, 0.99, 1 - 1e-12, rng.Float64(), 1} {
			check(classes, p)
		}
	}

	// Weights summing to 0.5 cap the CDF below p = 0.9, so all 200
	// doublings run out and the bisection climbs to the top of the bracket.
	capped := randomMixture(rng, 0.5)
	hi := 1e-6
	for _, c := range capped {
		hi = math.Max(hi, 4*c.expMean)
	}
	if q := mixtureQuantile(capped, 0.9); q < hi*math.Pow(2, 199) {
		t.Fatalf("capped mixture: quantile %v, want the exhausted bracket near %v", q, hi*math.Pow(2, 200))
	}
	check(capped, 0.9)
}
