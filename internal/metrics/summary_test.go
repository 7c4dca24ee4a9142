package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatalf("empty summary should be all zeros: %v", s.String())
	}
}

func TestSummaryBasicMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	// Population variance of this classic data set is 4; sample variance
	// is 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
	if s.min != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", s.min, s.Max())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Observe(3.5)
	if s.Mean() != 3.5 || s.min != 3.5 || s.Max() != 3.5 {
		t.Fatalf("single observation summary wrong: %s", s.String())
	}
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("variance of one observation must be 0")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := s.Percentile(50); !almostEqual(got, 50.5, 1e-9) {
		t.Errorf("Percentile(50) = %g", got)
	}
}

// quantileBySort is the sort-based Sample.Quantile that selection
// replaced, given the values sorted by sort.Float64s: interpolate between
// the closest ranks.
func quantileBySort(ys []float64, q float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// TestSampleQuantileMatchesSortReference checks that selecting order
// statistics returns the bits sorting did, on samples of 0–3 values and
// of up to 3000, with and without heavy duplication, for q values taken
// in several orders on one sample (each selection leaves the values
// reordered for the next), then again once the values are sorted.
func TestSampleQuantileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var samples [][]float64
	for trial := 0; trial < 600; trial++ {
		n := trial % 4
		if trial >= 200 {
			n = 4 + rng.IntN(3000)
		}
		dupShare := []float64{0, 0.5, 1}[trial%3] // share of values from {0, 0.25, 0.5, 0.75}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Float64() < dupShare {
				xs[i] = float64(rng.IntN(4)) * 0.25
			} else {
				xs[i] = rng.ExpFloat64()
			}
		}
		samples = append(samples, xs)
	}
	// An ascending run rotated right by one makes each pass of the q = 0
	// selection set aside a single value, which drives it past its pass
	// budget into sorting the rest.
	rotated := make([]float64, 1000)
	for i := range rotated {
		rotated[i] = float64((i + len(rotated) - 1) % len(rotated))
	}
	samples = append(samples, rotated)

	orders := [][]float64{
		{0, 0.5, 0.9, 0.99, 1},
		{1, 0.99, 0.9, 0.5, 0},
		{0.99, 0.5, 1, 0.9, 0},
		{0.5, 0.9, 0.5, 0.99, 0.9},
	}
	for _, xs := range samples {
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		for _, order := range orders {
			s := NewSample(len(xs))
			for _, x := range xs {
				s.Observe(x)
			}
			check := func(when string) {
				for _, q := range order {
					got, want := s.Quantile(q), quantileBySort(sorted, q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d order %v %s: Quantile(%g) = %v, sort gives %v",
							len(xs), order, when, q, got, want)
					}
				}
			}
			check("selecting")
			sort.Float64s(s.xs)
			check("after sorting")
		}
	}
}

func TestSampleEmptyAndReset(t *testing.T) {
	s := NewSample(4)
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatalf("empty sample should report zeros")
	}
	s.Observe(5)
	s.Observe(1)
	if s.sum.min != 1 || s.Max() != 5 || s.Count() != 2 {
		t.Fatalf("sample bookkeeping wrong")
	}
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatalf("reset did not clear sample")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestSampleQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Observe(math.Mod(x, 1e9))
		}
		if s.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			if v < s.sum.min-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive correlation.
	if r := Pearson([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %g", r)
	}
	// Perfect negative.
	if r := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g", r)
	}
	// Known value: x=(1,2,3), y=(1,3,2) → r = 0.5.
	if r := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("correlation = %g, want 0.5", r)
	}
	// Degenerate cases.
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Errorf("single pair should be 0")
	}
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Errorf("zero variance should be 0")
	}
	// Unequal lengths use the shorter prefix.
	if r := Pearson([]float64{1, 2, 3, 99}, []float64{10, 20, 30}); math.Abs(r-1) > 1e-12 {
		t.Errorf("prefix correlation = %g", r)
	}
}

func TestSampleSinceKeepsRecordingOrder(t *testing.T) {
	p := NewSample(0)
	for _, x := range []float64{5, 3, 9, 1} {
		p.Observe(x)
	}
	if got := p.Since(1); len(got) != 3 || got[0] != 3 || got[1] != 9 || got[2] != 1 {
		t.Fatalf("Since(1) = %v, want [3 9 1]", got)
	}
	if got := p.Since(4); len(got) != 0 {
		t.Fatalf("Since(Count) = %v, want empty", got)
	}
	p.Quantile(0.5) // reorders in place: recording order is gone
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Since after an in-place reorder should panic")
			}
		}()
		p.Since(0)
	}()
	p.Reset()
	p.Observe(2)
	if got := p.Since(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Since after Reset = %v, want [2]", got)
	}
}
