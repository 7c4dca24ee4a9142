package metrics

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// FuzzTDigestCodec drives the JSON decoder, which every sketch-carrying
// cache hit and result-log replay runs, with arbitrary bytes: it must
// never panic, and any input it accepts must behave like a valid digest.
// Its encoding must survive decode→encode byte-identically, its count
// must equal the sum of its weights, and its quantiles must be monotone
// inside [min, max]. Valid encodings are seeded so the fuzzer starts from
// the accepting region.
func FuzzTDigestCodec(f *testing.F) {
	seed := func(fill func(d *TDigest)) {
		d := NewTDigest(100)
		fill(d)
		data, err := d.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(func(*TDigest) {})
	seed(func(d *TDigest) { d.Observe(1.5) })
	seed(func(d *TDigest) {
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 5000; i++ {
			d.Observe(rng.ExpFloat64() * 250)
		}
	})
	seed(func(d *TDigest) {
		d.Add(-math.MaxFloat64, 3)
		d.Add(0, 1<<40)
		d.Add(math.MaxFloat64, 7)
	})
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Add([]byte(`{"compression":100,"count":1,"min":0,"max":10,"means":[1,2,3],"weights":[9223372036854775808,9223372036854775808,1]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d TDigest
		if err := d.UnmarshalJSON(data); err != nil {
			return // rejected: fine, as long as we didn't panic
		}
		var sum uint64
		for _, w := range d.weights {
			sum += w
		}
		if sum != d.Count() {
			t.Fatalf("count %d != weight sum %d", d.Count(), sum)
		}
		enc, err := d.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted digest failed to encode: %v", err)
		}
		var d2 TDigest
		if err := d2.UnmarshalJSON(enc); err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := d2.MarshalJSON()
		if err != nil {
			t.Fatalf("re-decoded digest failed to encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode→decode→encode not byte-identical:\n%s\n%s", enc, enc2)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := d.Quantile(q)
			if d.Count() == 0 {
				if v != 0 {
					t.Fatalf("empty digest Quantile(%g) = %g", q, v)
				}
				continue
			}
			if math.IsNaN(v) || v < d.Min() || v > d.Max() {
				t.Fatalf("Quantile(%g) = %g outside [%g, %g]", q, v, d.Min(), d.Max())
			}
			if v < prev {
				t.Fatalf("quantiles not monotone at q=%g: %g < %g", q, v, prev)
			}
			prev = v
		}
	})
}
