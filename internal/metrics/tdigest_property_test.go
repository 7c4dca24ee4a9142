package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// The sketch-vs-exact differential battery: every property the streaming
// path depends on, pinned against exact order statistics on seeded
// random and adversarial streams. This is the contract that lets the
// campaign folder replace full histograms with sketches without
// weakening any golden — a digest that drifts outside its documented
// rank-error bound fails here first.

// streamGen produces a deterministic observation stream for a seed.
type streamGen struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}

var adversarialStreams = []streamGen{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		return xs
	}},
	{"sorted-ascending", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64()
		}
		return xs
	}},
	{"sorted-descending", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n-i) + rng.Float64()
		}
		return xs
	}},
	{"constant", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 123.456
		}
		return xs
	}},
	{"bimodal", func(rng *rand.Rand, n int) []float64 {
		// Two well-separated modes — the adversarial shape for
		// interpolation across a density gap.
		xs := make([]float64, n)
		for i := range xs {
			if rng.Float64() < 0.7 {
				xs[i] = 10 + rng.NormFloat64()
			} else {
				xs[i] = 10000 + 100*rng.NormFloat64()
			}
		}
		return xs
	}},
	{"heavy-tailed", func(rng *rand.Rand, n int) []float64 {
		// Pareto(α=1.2): the response-time shape overloaded tiers emit.
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Pow(1-rng.Float64(), -1/1.2)
		}
		return xs
	}},
	{"few-distinct", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.IntN(5)) * 100
		}
		return xs
	}},
}

// assertWithinRankBound asserts that estimate lies between the exact
// order statistics at ranks (q−ε)·n and (q+ε)·n of the sorted stream.
func assertWithinRankBound(t *testing.T, sorted []float64, d *TDigest, q float64, label string) {
	t.Helper()
	n := len(sorted)
	eps := d.RankError(q)
	loRank := int(math.Floor((q - eps) * float64(n)))
	hiRank := int(math.Ceil((q+eps)*float64(n))) - 1
	if loRank < 0 {
		loRank = 0
	}
	if hiRank > n-1 {
		hiRank = n - 1
	}
	if hiRank < loRank {
		hiRank = loRank
	}
	got := d.Quantile(q)
	if got < sorted[loRank] || got > sorted[hiRank] {
		t.Errorf("%s: Quantile(%g) = %g outside rank window [%g, %g] (ranks %d..%d of %d, ε=%g)",
			label, q, got, sorted[loRank], sorted[hiRank], loRank, hiRank, n, eps)
	}
}

var batteryQuantiles = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// TestTDigestRankErrorBound: the headline accuracy property. Every
// stream shape, several sizes and seeds, every report quantile: the
// sketch estimate stays inside the documented rank window of the exact
// sorted sample.
func TestTDigestRankErrorBound(t *testing.T) {
	for _, sg := range adversarialStreams {
		for _, n := range []int{100, 1000, 50000} {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/n=%d/seed=%d", sg.name, n, seed)
				rng := rand.New(rand.NewPCG(seed, 0xe1ba))
				xs := sg.gen(rng, n)
				d := NewTDigest(DefaultTDigestCompression)
				for _, x := range xs {
					d.Observe(x)
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for _, q := range batteryQuantiles {
					assertWithinRankBound(t, sorted, d, q, label)
				}
			}
		}
	}
}

// TestTDigestQuantileMonotone: Quantile must be non-decreasing in q on
// every stream shape — the property the report tables rely on when they
// print p50 ≤ p90 ≤ p99.
func TestTDigestQuantileMonotone(t *testing.T) {
	for _, sg := range adversarialStreams {
		rng := rand.New(rand.NewPCG(42, 0xd1e5))
		xs := sg.gen(rng, 20000)
		d := NewTDigest(DefaultTDigestCompression)
		for _, x := range xs {
			d.Observe(x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.001 {
			got := d.Quantile(q)
			if got < prev {
				t.Fatalf("%s: Quantile(%g) = %g < Quantile(%g) = %g — not monotone",
					sg.name, q, got, q-0.001, prev)
			}
			prev = got
		}
	}
}

// TestTDigestMergeOrderInsensitive: folding the same chunks in any order
// — sequential, reversed, or as a balanced tree — must agree with the
// exact union within the documented bound. This is what makes campaign
// folds safe: the folder merges per-trial sketches in commit order, and
// a re-fold from the result log (same chunks, same or different
// grouping) lands inside the same window.
func TestTDigestMergeOrderInsensitive(t *testing.T) {
	for _, sg := range adversarialStreams {
		rng := rand.New(rand.NewPCG(77, 0xace))
		xs := sg.gen(rng, 30000)
		const chunks = 16
		parts := make([]*TDigest, chunks)
		for i := range parts {
			parts[i] = NewTDigest(DefaultTDigestCompression)
		}
		for i, x := range xs {
			parts[i%chunks].Observe(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)

		folds := map[string]*TDigest{
			"forward": NewTDigest(DefaultTDigestCompression),
			"reverse": NewTDigest(DefaultTDigestCompression),
		}
		for i := 0; i < chunks; i++ {
			folds["forward"].Merge(parts[i])
			folds["reverse"].Merge(parts[chunks-1-i])
		}
		// Balanced tree: pairwise until one digest remains (associativity).
		tree := make([]*TDigest, chunks)
		for i := range tree {
			tree[i] = NewTDigest(DefaultTDigestCompression)
			tree[i].Merge(parts[i])
		}
		for len(tree) > 1 {
			var next []*TDigest
			for i := 0; i+1 < len(tree); i += 2 {
				tree[i].Merge(tree[i+1])
				next = append(next, tree[i])
			}
			if len(tree)%2 == 1 {
				next = append(next, tree[len(tree)-1])
			}
			tree = next
		}
		folds["tree"] = tree[0]

		for name, d := range folds {
			if d.Count() != uint64(len(xs)) {
				t.Fatalf("%s/%s: merged count %d, want %d", sg.name, name, d.Count(), len(xs))
			}
			for _, q := range batteryQuantiles {
				assertWithinRankBound(t, sorted, d, q, sg.name+"/"+name)
			}
		}
	}
}

// TestTDigestMergeDeterministic: merging the same sequence of digests in
// the same order is bit-reproducible — the byte-identity half of the
// campaign folding contract.
func TestTDigestMergeDeterministic(t *testing.T) {
	build := func() []byte {
		rng := rand.New(rand.NewPCG(3, 1415))
		acc := NewTDigest(DefaultTDigestCompression)
		for c := 0; c < 8; c++ {
			part := NewTDigest(DefaultTDigestCompression)
			for i := 0; i < 5000; i++ {
				part.Observe(rng.ExpFloat64() * 100)
			}
			acc.Merge(part)
		}
		data, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatal("identical merge sequences produced different serialized digests")
	}
}

// TestTDigestWeightedAddEquivalence: Add(x, w) must agree with observing
// x w times within the bound (the folder's fallback path uses weighted
// adds for sketch-free results).
func TestTDigestWeightedAddEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	type wx struct {
		x float64
		w uint64
	}
	var items []wx
	var flat []float64
	for i := 0; i < 500; i++ {
		it := wx{x: rng.Float64() * 100, w: uint64(1 + rng.IntN(50))}
		items = append(items, it)
		for j := uint64(0); j < it.w; j++ {
			flat = append(flat, it.x)
		}
	}
	d := NewTDigest(DefaultTDigestCompression)
	for _, it := range items {
		d.Add(it.x, it.w)
	}
	if d.Count() != uint64(len(flat)) {
		t.Fatalf("weighted count %d, want %d", d.Count(), len(flat))
	}
	sort.Float64s(flat)
	for _, q := range batteryQuantiles {
		assertWithinRankBound(t, flat, d, q, "weighted")
	}
}
