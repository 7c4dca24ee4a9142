package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultTDigestCompression is the compression (δ) used throughout the
// streaming path: ≤ ~2δ centroids, which at δ=100 keeps a sketch near
// 5 KB while holding the documented rank-error bound well under 1% at
// the tail quantiles the reports read.
const DefaultTDigestCompression = 100

// TDigest is a mergeable quantile sketch (Dunning's merging t-digest with
// the k₁ scale function). It summarizes any number of observations in a
// bounded set of weighted centroids — denser near the distribution's
// tails — so campaign-scale result streams can carry response-time
// quantiles in O(δ) memory instead of O(observations).
//
// # Accuracy contract
//
// Quantile(q) is an estimate with a bounded rank error: the returned
// value always lies between the exact order statistics at ranks
// (q−ε(q))·n and (q+ε(q))·n of the observed multiset, where
//
//	ε(q) = max(4·sqrt(q·(1−q)), 1/2) / δ
//
// (δ = the compression chosen at construction). At δ=100 that is at
// most 2% rank error at the median and ≤0.7% at p99, shrinking toward
// the extremes; the property battery in tdigest_property_test.go pins
// this bound on random and adversarial streams, and Merge preserves it.
// Quantile is also monotone in q, and exact for q≤0 (min), q≥1 (max),
// and constant streams.
//
// # Determinism
//
// A digest's state is a pure function of its observation sequence:
// Observe, Merge, and Compress use no randomness and iterate centroids
// in ascending-mean order, so two digests fed the same sequence are
// byte-identical under both codecs. Folding per-trial digests in the
// store's canonical grid order therefore yields campaign sketches that
// are byte-identical at any worker count. Methods are not safe for
// concurrent use.
//
// The quantile argument contract: out-of-range q is clamped into [0, 1],
// NaN q returns NaN, and an empty digest returns 0.
type TDigest struct {
	compression float64
	min, max    float64
	total       uint64

	// Sealed centroids, sorted by ascending mean.
	means   []float64
	weights []uint64

	// Unsorted observation buffer, folded in by compress().
	bufM []float64
	bufW []uint64

	// Scratch arrays compress() merges into (swapped with means/weights).
	scratchM []float64
	scratchW []uint64

	sorter tdigestSorter
}

// maxTDigestCentroids bounds the sealed centroid count for a compression:
// the merging digest with k₁ lands in [δ/2, 2δ]; the slack absorbs the
// boundary cases around tiny totals.
func maxTDigestCentroids(compression float64) int {
	return 2*int(math.Ceil(compression)) + 8
}

// NewTDigest creates an empty digest with the given compression δ
// (clamped to [20, 1000]). All internal storage is allocated up front,
// so Observe and Merge are allocation-free in steady state.
func NewTDigest(compression float64) *TDigest {
	if compression < 20 || math.IsNaN(compression) {
		compression = 20
	}
	if compression > 1000 {
		compression = 1000
	}
	capC := maxTDigestCentroids(compression)
	bufCap := 8 * int(math.Ceil(compression))
	d := &TDigest{
		compression: compression,
		means:       make([]float64, 0, capC),
		weights:     make([]uint64, 0, capC),
		bufM:        make([]float64, 0, bufCap),
		bufW:        make([]uint64, 0, bufCap),
		scratchM:    make([]float64, 0, capC),
		scratchW:    make([]uint64, 0, capC),
	}
	return d
}

// Compression reports the δ the digest was built with.
func (d *TDigest) Compression() float64 { return d.compression }

// Count reports the total observation weight.
func (d *TDigest) Count() uint64 { return d.total }

// Min reports the smallest observation, or 0 when empty.
func (d *TDigest) Min() float64 {
	if d.total == 0 {
		return 0
	}
	return d.min
}

// Max reports the largest observation, or 0 when empty.
func (d *TDigest) Max() float64 {
	if d.total == 0 {
		return 0
	}
	return d.max
}

// Centroids reports the sealed centroid count (after compaction). The
// streaming ingest test pins it under MaxCentroids at any stream length.
func (d *TDigest) Centroids() int {
	d.Compress()
	return len(d.means)
}

// MaxCentroids reports the hard cap on the sealed centroid count.
func (d *TDigest) MaxCentroids() int { return maxTDigestCentroids(d.compression) }

// Observe adds one observation. NaN observations are ignored (a quantile
// over a partially-NaN stream has no defined rank); ±Inf are clamped to
// the largest finite magnitudes so the sketch stays finite.
func (d *TDigest) Observe(x float64) { d.Add(x, 1) }

// Add folds weight w of value x into the digest. w = 0 is a no-op.
func (d *TDigest) Add(x float64, w uint64) {
	if w == 0 || math.IsNaN(x) {
		return
	}
	if math.IsInf(x, 1) {
		x = math.MaxFloat64
	}
	if math.IsInf(x, -1) {
		x = -math.MaxFloat64
	}
	if d.total == 0 {
		d.min, d.max = x, x
	} else {
		if x < d.min {
			d.min = x
		}
		if x > d.max {
			d.max = x
		}
	}
	if len(d.bufM) == cap(d.bufM) {
		d.compress()
	}
	d.bufM = append(d.bufM, x)
	d.bufW = append(d.bufW, w)
	d.total += w
}

// Merge folds o's centroids into d in ascending-mean order and compacts.
// Merging preserves the rank-error contract: the merged digest's
// quantiles agree with the exact union of both observation multisets
// within the same ε(q). Merging an empty or nil digest is a no-op; o is
// not modified (its buffer is sealed first).
func (d *TDigest) Merge(o *TDigest) {
	if o == nil || d == o || o.total == 0 {
		return
	}
	o.Compress()
	for i := range o.means {
		d.Add(o.means[i], o.weights[i])
	}
	// Centroid means are interior points; the true extremes survive only
	// in o's min/max.
	if o.min < d.min {
		d.min = o.min
	}
	if o.max > d.max {
		d.max = o.max
	}
	d.compress()
}

// Compress seals the observation buffer into the centroid set. Callers
// never need it for correctness — Quantile and MarshalJSON seal on
// demand — but sealing before serialization makes the canonical form
// explicit.
func (d *TDigest) Compress() {
	if len(d.bufM) > 0 {
		d.compress()
	}
}

// k₁ scale function and its inverse: k(q) = δ/(2π)·asin(2q−1).
func (d *TDigest) scaleK(q float64) float64 {
	if q <= 0 {
		return -d.compression / 4
	}
	if q >= 1 {
		return d.compression / 4
	}
	return d.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (d *TDigest) scaleQ(k float64) float64 {
	lim := d.compression / 4
	if k >= lim {
		return 1
	}
	if k <= -lim {
		return 0
	}
	return (math.Sin(k*2*math.Pi/d.compression) + 1) / 2
}

// compress merges the sorted buffer with the sealed centroids into the
// scratch arrays under the k₁ size criterion, then swaps scratch in.
func (d *TDigest) compress() {
	if len(d.bufM) == 0 {
		return
	}
	d.sorter.m, d.sorter.w = d.bufM, d.bufW
	sort.Sort(&d.sorter)

	totalW := float64(d.total)
	d.scratchM = d.scratchM[:0]
	d.scratchW = d.scratchW[:0]

	// Two-way merge of (means, weights) and (bufM, bufW), both sorted.
	i, j := 0, 0
	nextItem := func() (float64, uint64) {
		if i < len(d.means) && (j >= len(d.bufM) || d.means[i] <= d.bufM[j]) {
			m, w := d.means[i], d.weights[i]
			i++
			return m, w
		}
		m, w := d.bufM[j], d.bufW[j]
		j++
		return m, w
	}
	n := len(d.means) + len(d.bufM)

	curM, curW := nextItem()
	var wSoFar float64
	wLimit := totalW * d.scaleQ(d.scaleK(0)+1)
	for k := 1; k < n; k++ {
		m, w := nextItem()
		if wSoFar+float64(curW)+float64(w) <= wLimit {
			// Same centroid: weighted-mean update in deterministic order.
			curM += (m - curM) * float64(w) / float64(curW+w)
			curW += w
			continue
		}
		d.scratchM = append(d.scratchM, curM)
		d.scratchW = append(d.scratchW, curW)
		wSoFar += float64(curW)
		wLimit = totalW * d.scaleQ(d.scaleK(wSoFar/totalW)+1)
		curM, curW = m, w
	}
	d.scratchM = append(d.scratchM, curM)
	d.scratchW = append(d.scratchW, curW)

	d.means, d.scratchM = d.scratchM, d.means
	d.weights, d.scratchW = d.scratchW, d.weights
	d.bufM = d.bufM[:0]
	d.bufW = d.bufW[:0]
}

// Quantile estimates the q-th quantile under the documented rank-error
// bound. q < 0 is clamped to 0, q > 1 to 1, NaN returns NaN, and an
// empty digest returns 0. q=0 and q=1 return the exact min and max.
func (d *TDigest) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if d.total == 0 {
		return 0
	}
	d.Compress()
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	target := q * float64(d.total)

	// Piecewise-linear interpolation through the centroid midpoints,
	// anchored at (rank 0, min) and (rank total, max).
	prevMean := d.min
	prevRank := 0.0
	var cum float64
	for i := range d.means {
		mid := cum + float64(d.weights[i])/2
		if target < mid {
			if mid == prevRank {
				return d.means[i]
			}
			frac := (target - prevRank) / (mid - prevRank)
			return prevMean + frac*(d.means[i]-prevMean)
		}
		prevMean, prevRank = d.means[i], mid
		cum += float64(d.weights[i])
	}
	total := float64(d.total)
	if total == prevRank {
		return d.max
	}
	frac := (target - prevRank) / (total - prevRank)
	return prevMean + frac*(d.max-prevMean)
}

// tdigestSorter sorts the observation buffer's parallel arrays by mean.
// It lives inside the digest so sort.Sort sees a stable pointer and the
// flush path stays allocation-free.
type tdigestSorter struct {
	m []float64
	w []uint64
}

func (s *tdigestSorter) Len() int           { return len(s.m) }
func (s *tdigestSorter) Less(i, j int) bool { return s.m[i] < s.m[j] }
func (s *tdigestSorter) Swap(i, j int) {
	s.m[i], s.m[j] = s.m[j], s.m[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// tdigestJSON is the sketch's JSON wire form, used inside store.Result
// (field rt_sketch). Field order is fixed and float encoding is Go's
// shortest round-trip form, so serialization is deterministic and a
// decode→encode cycle is byte-identical — the property the campaign
// cache's replay guarantee rests on.
type tdigestJSON struct {
	Compression float64   `json:"compression"`
	Count       uint64    `json:"count"`
	Min         float64   `json:"min"`
	Max         float64   `json:"max"`
	Means       []float64 `json:"means"`
	Weights     []uint64  `json:"weights"`
}

// MarshalJSON seals the digest and encodes its canonical JSON form.
func (d *TDigest) MarshalJSON() ([]byte, error) {
	d.Compress()
	return json.Marshal(tdigestJSON{
		Compression: d.compression,
		Count:       d.total,
		Min:         d.Min(),
		Max:         d.Max(),
		Means:       d.means,
		Weights:     d.weights,
	})
}

// UnmarshalJSON decodes the JSON form, validating its structural
// invariants (compression range, centroid cap and ordering, weight sum)
// so corrupt bytes are rejected rather than trusted.
func (d *TDigest) UnmarshalJSON(data []byte) error {
	var j tdigestJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("tdigest: %w", err)
	}
	if !(j.Compression >= 20 && j.Compression <= 1000) {
		return fmt.Errorf("tdigest: compression %g out of range", j.Compression)
	}
	if len(j.Means) != len(j.Weights) {
		return fmt.Errorf("tdigest: %d means vs %d weights", len(j.Means), len(j.Weights))
	}
	if len(j.Means) > maxTDigestCentroids(j.Compression) {
		return fmt.Errorf("tdigest: centroid count %d exceeds cap", len(j.Means))
	}
	if (j.Count == 0) != (len(j.Means) == 0) {
		return fmt.Errorf("tdigest: weight/centroid mismatch")
	}
	if j.Count > 0 && (math.IsNaN(j.Min) || math.IsNaN(j.Max) || j.Min > j.Max) {
		return fmt.Errorf("tdigest: invalid min/max")
	}
	var sum uint64
	prev := math.Inf(-1)
	for i, m := range j.Means {
		if math.IsNaN(m) || m < prev || j.Weights[i] == 0 || m < j.Min || m > j.Max {
			return fmt.Errorf("tdigest: invalid centroid %d", i)
		}
		if j.Weights[i] > math.MaxUint64-sum {
			return fmt.Errorf("tdigest: weight sum overflows")
		}
		prev = m
		sum += j.Weights[i]
	}
	if sum != j.Count {
		return fmt.Errorf("tdigest: weight sum %d != total %d", sum, j.Count)
	}
	fresh := NewTDigest(j.Compression)
	fresh.means = append(fresh.means[:0], j.Means...)
	fresh.weights = append(fresh.weights[:0], j.Weights...)
	fresh.total = j.Count
	if j.Count > 0 {
		fresh.min, fresh.max = j.Min, j.Max
	}
	*d = *fresh
	return nil
}
