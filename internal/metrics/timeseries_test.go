package metrics

import "testing"

func TestTimeSeriesWindowAndMean(t *testing.T) {
	ts := &TimeSeries{}
	for i := 0; i < 10; i++ {
		ts.Append(float64(i), float64(i)*10)
	}
	if len(ts.points) != 10 {
		t.Fatalf("basic bookkeeping wrong")
	}
	m, ok := ts.MeanIn(2, 5)
	if !ok || m != 30 {
		t.Fatalf("MeanIn = %g, %v", m, ok)
	}
}

func TestTimeSeriesEmptyWindow(t *testing.T) {
	ts := &TimeSeries{}
	ts.Append(1, 5)
	if _, ok := ts.MeanIn(10, 20); ok {
		t.Fatalf("MeanIn of empty window should report !ok")
	}
}

func TestTimeSeriesOutOfOrderSorted(t *testing.T) {
	ts := &TimeSeries{}
	ts.Append(3, 30)
	ts.Append(1, 10)
	ts.Append(2, 20)
	p := ts.Points()
	if p[0].T != 1 || p[1].T != 2 || p[2].T != 3 {
		t.Fatalf("Points not sorted: %v", p)
	}
	// original storage must be untouched
	if ts.At(0).T != 3 {
		t.Fatalf("Points mutated internal order")
	}
}
