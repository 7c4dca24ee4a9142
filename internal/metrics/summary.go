// Package metrics provides the statistical primitives used throughout the
// Elba experiment infrastructure: streaming summaries, percentile
// estimation over recorded samples, time series, and simple confidence
// intervals. All types are deterministic and allocation-conscious so they
// can be updated from the hot path of the discrete-event simulator.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming moments of a sequence of observations
// using Welford's online algorithm. The zero value is an empty summary
// ready for use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Observe adds one observation to the summary.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s. Merging an empty summary is a no-op.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean, s.m2, s.n = mean, m2, n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Reset returns the summary to its empty state so the hot path can reuse
// pre-registered summaries across measurement windows without reallocating.
func (s *Summary) Reset() { *s = Summary{} }

// Count reports the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean reports the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Sum reports the running sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Min reports the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Variance reports the unbiased sample variance, or 0 when fewer than two
// observations have been made.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CI95 reports the half-width of the 95% confidence interval of the mean
// using the normal approximation (adequate at the sample sizes our trials
// produce).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// String renders the summary for logs and reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		s.n, s.mean, s.min, s.max, s.StdDev())
}

// Sample records raw observations so that exact order statistics
// (percentiles, median) can be computed after the fact. It keeps every
// value; trials are bounded so this stays modest.
type Sample struct {
	xs     []float64
	sorted bool
	// permuted is set by the first in-place sort after a Reset: from then
	// on xs is no longer in recording order.
	permuted bool
	sum      Summary
}

// NewSample returns a sample with capacity pre-allocated for n values.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Observe appends a value to the sample.
func (p *Sample) Observe(x float64) {
	p.xs = append(p.xs, x)
	p.sorted = false
	p.sum.Observe(x)
}

// Count reports the number of recorded values.
func (p *Sample) Count() int { return len(p.xs) }

// Mean reports the arithmetic mean of the recorded values.
func (p *Sample) Mean() float64 { return p.sum.Mean() }

// Min reports the smallest recorded value.
func (p *Sample) Min() float64 { return p.sum.Min() }

// Max reports the largest recorded value.
func (p *Sample) Max() float64 { return p.sum.Max() }

// StdDev reports the sample standard deviation of the recorded values.
func (p *Sample) StdDev() float64 { return p.sum.StdDev() }

// Summary returns the streaming summary of the recorded values.
func (p *Sample) Summary() Summary { return p.sum }

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (p *Sample) Quantile(q float64) float64 {
	if len(p.xs) == 0 {
		return 0
	}
	p.ensureSorted()
	return QuantileSorted(p.xs, q)
}

// QuantileSorted returns the q-th quantile of an ascending slice by
// linear interpolation between closest ranks, the definition
// Sample.Quantile uses. It returns 0 for an empty slice.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Percentile is shorthand for Quantile(pct/100).
func (p *Sample) Percentile(pct float64) float64 { return p.Quantile(pct / 100) }

// Values returns a copy of the recorded values in insertion-independent
// (sorted) order.
func (p *Sample) Values() []float64 {
	p.ensureSorted()
	out := make([]float64, len(p.xs))
	copy(out, p.xs)
	return out
}

// Since returns the values recorded after the first i, in recording
// order, sharing the sample's storage (callers must copy before
// modifying). Recording order exists only until the sample is first
// sorted — Quantile, Percentile and Values sort in place — so Since
// panics if that has happened since the last Reset.
func (p *Sample) Since(i int) []float64 {
	if p.permuted {
		panic("metrics: Sample.Since after an in-place sort")
	}
	return p.xs[i:]
}

// Reset discards all recorded values but keeps the allocation.
func (p *Sample) Reset() {
	p.xs = p.xs[:0]
	p.sorted = false
	p.permuted = false
	p.sum = Summary{}
}

// ensureSorted orders the values in place for the order statistics.
func (p *Sample) ensureSorted() {
	if !p.sorted {
		sort.Float64s(p.xs)
		p.sorted = true
		p.permuted = true
	}
}

// Pearson computes the Pearson correlation coefficient of two paired
// samples. It returns 0 when fewer than two pairs exist or either side
// has zero variance.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	var sx, sy Summary
	for i := 0; i < n; i++ {
		sx.Observe(xs[i])
		sy.Observe(ys[i])
	}
	var cov float64
	for i := 0; i < n; i++ {
		cov += (xs[i] - sx.Mean()) * (ys[i] - sy.Mean())
	}
	cov /= float64(n - 1)
	den := sx.StdDev() * sy.StdDev()
	if den == 0 {
		return 0
	}
	return cov / den
}
