// Package metrics provides the statistical primitives used throughout the
// Elba experiment infrastructure: streaming summaries, percentile
// estimation over recorded samples, time series, and simple confidence
// intervals. All types are deterministic and allocation-conscious so they
// can be updated from the hot path of the discrete-event simulator.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
	xs []float64
	// permuted is set by the first in-place sort or selection after a
	// Reset: from then on xs is no longer in recording order.
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
// It selects only the one or two order statistics it reads, reordering
// the values in place; selection yields the values a full sort would
// leave at those ranks.
func (p *Sample) Quantile(q float64) float64 {
	if len(p.xs) == 0 {
		return 0
	}
	p.permuted = true
	lo, hi, frac := quantileRanks(len(p.xs), q)
	x := selectRank(p.xs, lo)
	if lo == hi {
		return x
	}
	// The values after rank lo are the ones above it, so rank hi = lo+1
	// is their minimum.
	y := p.xs[hi]
	for _, v := range p.xs[hi+1:] {
		if cmp.Less(v, y) {
			y = v
		}
	}
	return x*(1-frac) + y*frac
}

// QuantileSorted returns the q-th quantile of an ascending slice by
// linear interpolation between closest ranks, the definition
// Sample.Quantile uses. It returns 0 for an empty slice.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, frac := quantileRanks(len(xs), q)
	if lo == hi {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// quantileRanks returns the closest ranks below and above the q-th
// quantile of n ≥ 1 ascending values, and how far the quantile lies from
// the lower rank towards the upper one.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if q <= 0 {
		return 0, 0, 0
	}
	if q >= 1 {
		return n - 1, n - 1, 0
	}
	pos := q * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// selectRank reorders xs so that xs[k] holds the value of rank k, with no
// greater value before it and no smaller one after it, and returns that
// value. It orders values as sort.Float64s does (NaNs first), so the value
// is the one sorting would leave at k. Each pass partitions the range
// holding k around the value at k (Wirth's FIND); should the passes run
// past twice the depth a halving needs, the rest of the range is sorted
// instead, which bounds the worst case by a sort's.
func selectRank(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for passes := 2 * bits.Len(uint(len(xs))); lo < hi; passes-- {
		if passes == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		x := xs[k]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(xs[i], x) {
				i++
			}
			for cmp.Less(x, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo:j+1] ≤ x ≤ xs[i:hi+1], and any value between is x.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return xs[k]
}

// Percentile is shorthand for Quantile(pct/100).
func (p *Sample) Percentile(pct float64) float64 { return p.Quantile(pct / 100) }

// Values returns a copy of the recorded values in insertion-independent
// (sorted) order.
func (p *Sample) Values() []float64 {
	sort.Float64s(p.xs)
	p.permuted = true
	out := make([]float64, len(p.xs))
	copy(out, p.xs)
	return out
}

// Since returns the values recorded after the first i, in recording
// order, sharing the sample's storage (callers must copy before
// modifying). Recording order exists only until the sample is first
// reordered — Quantile and Percentile select and Values sorts in place —
// so Since panics if that has happened since the last Reset.
func (p *Sample) Since(i int) []float64 {
	if p.permuted {
		panic("metrics: Sample.Since after an in-place reorder")
	}
	return p.xs[i:]
}

// Reset discards all recorded values but keeps the allocation.
func (p *Sample) Reset() {
	p.xs = p.xs[:0]
	p.permuted = false
	p.sum = Summary{}
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
