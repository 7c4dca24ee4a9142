package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Point is one (time, value) observation in a time series. Time is in
// seconds from an arbitrary epoch (the simulator uses simulated seconds).
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only sequence of timestamped values, such as the
// CPU utilization samples a monitor produces for one host.
type TimeSeries struct {
	name   string
	points []Point
}

// NewTimeSeries creates a named, empty series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Name reports the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Append adds a point. Points are expected in non-decreasing time order;
// out-of-order appends are tolerated and sorted lazily by consumers.
func (ts *TimeSeries) Append(t, v float64) {
	ts.points = append(ts.points, Point{T: t, V: v})
}

// Grow makes room for n more points, so that many appends do not
// reallocate.
func (ts *TimeSeries) Grow(n int) { ts.points = slices.Grow(ts.points, n) }

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// At returns the i-th point in insertion order.
func (ts *TimeSeries) At(i int) Point { return ts.points[i] }

// Points returns a copy of all points sorted by time.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Window returns the points with lo <= T < hi, sorted by time.
func (ts *TimeSeries) Window(lo, hi float64) []Point {
	var out []Point
	for _, p := range ts.points {
		if p.T >= lo && p.T < hi {
			out = append(out, p)
		}
	}
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

// MaxIn reports the maximum value of points with lo <= T < hi, and whether
// any points fell in the window.
func (ts *TimeSeries) MaxIn(lo, hi float64) (float64, bool) {
	found := false
	m := math.Inf(-1)
	for _, p := range ts.points {
		if p.T >= lo && p.T < hi {
			found = true
			if p.V > m {
				m = p.V
			}
		}
	}
	if !found {
		return 0, false
	}
	return m, true
}

// Summarize returns a streaming summary over every point value.
func (ts *TimeSeries) Summarize() Summary {
	var s Summary
	for _, p := range ts.points {
		s.Observe(p.V)
	}
	return s
}

// CSV renders the series as "t,v" lines with a header, suitable for
// plotting tools.
func (ts *TimeSeries) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t,%s\n", ts.name)
	for _, p := range ts.Points() {
		fmt.Fprintf(&b, "%.3f,%.6f\n", p.T, p.V)
	}
	return b.String()
}
