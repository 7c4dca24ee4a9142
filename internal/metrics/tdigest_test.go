package metrics

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

func TestTDigestEmpty(t *testing.T) {
	d := NewTDigest(100)
	if d.Count() != 0 {
		t.Fatalf("Count = %d, want 0", d.Count())
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := d.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	if got := d.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("empty Quantile(NaN) = %g, want NaN", got)
	}
	if d.Min() != 0 || d.Max() != 0 {
		t.Errorf("empty Min/Max = %g/%g, want 0/0", d.Min(), d.Max())
	}
}

func TestTDigestQuantileContract(t *testing.T) {
	// Out-of-range q clamps into [0, 1]; NaN in → NaN out.
	d := NewTDigest(100)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 1000; i++ {
		d.Observe(rng.Float64() * 100)
	}
	if got, want := d.Quantile(-0.5), d.Quantile(0); got != want {
		t.Errorf("Quantile(-0.5) = %g, want clamp to Quantile(0) = %g", got, want)
	}
	if got, want := d.Quantile(1.5), d.Quantile(1); got != want {
		t.Errorf("Quantile(1.5) = %g, want clamp to Quantile(1) = %g", got, want)
	}
	if got := d.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %g, want NaN", got)
	}
}

func TestTDigestExactExtremes(t *testing.T) {
	d := NewTDigest(50)
	rng := rand.New(rand.NewPCG(1, 2))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 50000; i++ {
		x := rng.NormFloat64()*10 + 100
		d.Observe(x)
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if d.Quantile(0) != lo || d.Min() != lo {
		t.Errorf("Quantile(0) = %g, Min = %g, want %g", d.Quantile(0), d.Min(), lo)
	}
	if d.Quantile(1) != hi || d.Max() != hi {
		t.Errorf("Quantile(1) = %g, Max = %g, want %g", d.Quantile(1), d.Max(), hi)
	}
}

func TestTDigestConstantStream(t *testing.T) {
	d := NewTDigest(100)
	for i := 0; i < 10000; i++ {
		d.Observe(42.5)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := d.Quantile(q); got != 42.5 {
			t.Errorf("constant stream Quantile(%g) = %g, want 42.5", q, got)
		}
	}
	if d.Centroids() > d.MaxCentroids() {
		t.Errorf("centroids %d exceed cap %d", d.Centroids(), d.MaxCentroids())
	}
}

func TestTDigestCentroidCapHeld(t *testing.T) {
	// O(sketch) memory is the whole point: the sealed centroid count must
	// stay bounded at any stream length.
	for _, comp := range []float64{20, 100, 500} {
		d := NewTDigest(comp)
		rng := rand.New(rand.NewPCG(3, uint64(comp)))
		for i := 0; i < 200000; i++ {
			d.Observe(rng.ExpFloat64())
			if i%5000 == 0 {
				if c := d.Centroids(); c > d.MaxCentroids() {
					t.Fatalf("δ=%g: %d centroids at i=%d exceed cap %d", comp, c, i, d.MaxCentroids())
				}
			}
		}
		if c := d.Centroids(); c > d.MaxCentroids() {
			t.Errorf("δ=%g: final %d centroids exceed cap %d", comp, c, d.MaxCentroids())
		}
	}
}

func TestTDigestIgnoresNaNClampsInf(t *testing.T) {
	d := NewTDigest(100)
	d.Observe(math.NaN())
	if d.Count() != 0 {
		t.Fatalf("NaN observation counted: %d", d.Count())
	}
	d.Observe(1)
	d.Observe(math.Inf(1))
	d.Observe(math.Inf(-1))
	if d.Count() != 3 {
		t.Fatalf("Count = %d, want 3", d.Count())
	}
	if !(d.Max() == math.MaxFloat64 && d.Min() == -math.MaxFloat64) {
		t.Errorf("Inf not clamped: min=%g max=%g", d.Min(), d.Max())
	}
}

func TestTDigestMergeTrivial(t *testing.T) {
	d := NewTDigest(100)
	d.Observe(1)
	d.Observe(2)
	before := d.Quantile(0.5)
	d.Merge(nil)
	d.Merge(NewTDigest(100))
	d.Merge(d)
	if d.Count() != 2 || d.Quantile(0.5) != before {
		t.Errorf("trivial merges changed state: count=%d q50=%g", d.Count(), d.Quantile(0.5))
	}
}

func TestTDigestCodecRoundTrip(t *testing.T) {
	streams := map[string]func(*TDigest){
		"empty": func(*TDigest) {},
		"one":   func(d *TDigest) { d.Observe(3.25) },
		"random": func(d *TDigest) {
			rng := rand.New(rand.NewPCG(9, 9))
			for i := 0; i < 20000; i++ {
				d.Observe(rng.NormFloat64())
			}
		},
		"weighted": func(d *TDigest) {
			d.Add(1, 1000)
			d.Add(2, 1)
			d.Add(3, 123456789)
		},
	}
	for name, fill := range streams {
		t.Run(name, func(t *testing.T) {
			d := NewTDigest(100)
			fill(d)
			js, err := d.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var dj TDigest
			if err := dj.UnmarshalJSON(js); err != nil {
				t.Fatalf("UnmarshalJSON: %v", err)
			}
			js2, err := dj.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, js2) {
				t.Errorf("JSON decode→encode not byte-identical:\n%s\n%s", js, js2)
			}
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
				if a, b := d.Quantile(q), dj.Quantile(q); a != b {
					t.Errorf("JSON round-trip Quantile(%g): %g != %g", q, a, b)
				}
			}
		})
	}
}

func TestTDigestCodecRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"weight-sum":      `{"compression":100,"count":5,"min":0,"max":1,"means":[0.5],"weights":[4]}`,
		"unsorted":        `{"compression":100,"count":2,"min":0,"max":1,"means":[0.9,0.1],"weights":[1,1]}`,
		"weight-sum-wrap": `{"compression":100,"count":1,"min":0,"max":10,"means":[1,2,3],"weights":[9223372036854775808,9223372036854775808,1]}`,
	}
	for name, data := range cases {
		var v TDigest
		if err := v.UnmarshalJSON([]byte(data)); err == nil {
			t.Errorf("%s: corrupt JSON accepted", name)
		}
	}
}

func TestTDigestObserveZeroAllocs(t *testing.T) {
	d := NewTDigest(100)
	rng := rand.New(rand.NewPCG(13, 17))
	// Prime past the first growth phase.
	for i := 0; i < 100000; i++ {
		d.Observe(rng.Float64())
	}
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		d.Observe(xs[i&4095])
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f/op in steady state, want 0", allocs)
	}
}

func BenchmarkTDigestObserve(b *testing.B) {
	d := NewTDigest(DefaultTDigestCompression)
	rng := rand.New(rand.NewPCG(1, 1))
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	for i := 0; i < 100000; i++ {
		d.Observe(xs[i&8191])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(xs[i&8191])
	}
}
