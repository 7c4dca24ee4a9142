package metrics

import (
	"slices"
	"sort"
)

// Point is one (time, value) observation in a time series. Time is in
// seconds from an arbitrary epoch (the simulator uses simulated seconds).
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only sequence of timestamped values, such as the
// CPU utilization samples a monitor produces for one host. The zero value
// is an empty series ready for use.
type TimeSeries struct {
	points []Point
}

// Append adds a point. Points are expected in non-decreasing time order;
// out-of-order appends are tolerated and sorted lazily by consumers.
func (ts *TimeSeries) Append(t, v float64) {
	ts.points = append(ts.points, Point{T: t, V: v})
}

// Grow makes room for n more points, so that many appends do not
// reallocate.
func (ts *TimeSeries) Grow(n int) { ts.points = slices.Grow(ts.points, n) }

// At returns the i-th point in insertion order.
func (ts *TimeSeries) At(i int) Point { return ts.points[i] }

// Points returns a copy of all points sorted by time.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// MeanIn reports the mean value of points with lo <= T < hi, and whether
// any points fell in the window.
func (ts *TimeSeries) MeanIn(lo, hi float64) (float64, bool) {
	var s Summary
	for _, p := range ts.points {
		if p.T >= lo && p.T < hi {
			s.Observe(p.V)
		}
	}
	if s.Count() == 0 {
		return 0, false
	}
	return s.Mean(), true
}
