package experiment

import (
	"math"
	"os"
	"sync"
	"testing"

	"elba/internal/metrics"
	"elba/internal/spec"
	"elba/internal/store"
)

// rtTap accumulates one trial's measured response-time stream two ways:
// exact order statistics and an independently-built t-digest.
type rtTap struct {
	sample *metrics.Sample
	digest *metrics.TDigest
}

// TestSketchCrosscheckRubbosBaseline folds the real per-request RT
// streams of the paper's RUBBoS baseline spec and cross-checks every
// estimator against the exact sample at p50/p90/p99:
//
//   - the stored Result.RTSketch must equal an independently-built
//     digest fed the same stream — the tap is the measurement, not a
//     shadow of it;
//   - the digest must land inside the exact sample's rank-error window
//     ε(q) = max(4·sqrt(q(1−q)), ½)/δ.
func TestSketchCrosscheckRubbosBaseline(t *testing.T) {
	src, err := os.ReadFile("../../specs/rubbos-baseline.tbl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	taps := map[store.Key]*rtTap{}
	r := testRunner(t)
	r.SketchRT = true
	r.OnRTSample = func(k store.Key, rt float64) {
		mu.Lock()
		defer mu.Unlock()
		tp := taps[k]
		if tp == nil {
			tp = &rtTap{
				sample: metrics.NewSample(4096),
				digest: metrics.NewTDigest(metrics.DefaultTDigestCompression),
			}
			taps[k] = tp
		}
		ms := rt * 1000
		tp.sample.Observe(ms)
		tp.digest.Observe(ms)
	}

	for _, e := range doc.Experiments {
		// The full paper grid runs to 5000 users; two populations per
		// experiment exercise the same code at test cost.
		e.Workload.Users = spec.Range{Lo: 500, Hi: 1000, Step: 500}
		if err := r.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(taps) == 0 {
		t.Fatal("RT observer never fired")
	}

	// Value-space slack, in ms, for comparing the sketch with the stored
	// percentile columns.
	const slackMs = 5.0
	checked := 0
	for _, res := range r.Store().All() {
		tp := taps[res.Key]
		if tp == nil || res.RTSketch == nil {
			t.Fatalf("no tap or sketch for %v", res.Key)
		}
		if got, want := res.RTSketch.Count(), uint64(tp.sample.Count()); got != want {
			t.Fatalf("%v: sketch folded %d observations, tap saw %d", res.Key, got, want)
		}
		tp.digest.Compress()
		for _, q := range []float64{0.50, 0.90, 0.99} {
			stored := res.RTSketch.Quantile(q)
			if independent := tp.digest.Quantile(q); stored != independent {
				t.Errorf("%v q=%g: stored sketch %g != independent digest %g — the tap diverged from the measurement",
					res.Key, q, stored, independent)
			}
			// Rank-error window: the digest's q-quantile must lie between
			// the exact quantiles at q±ε.
			eps := math.Max(4*math.Sqrt(q*(1-q)), 0.5) / float64(res.RTSketch.Compression())
			lo := tp.sample.Quantile(math.Max(0, q-eps))
			hi := tp.sample.Quantile(math.Min(1, q+eps))
			if stored < lo || stored > hi {
				t.Errorf("%v q=%g: sketch %g outside exact rank window [%g, %g] (ε=%g)",
					res.Key, q, stored, lo, hi, eps)
			}
			checked++
		}
		// The stored percentile columns come from the same stream; the
		// sketch must reproduce them within its own error plus the rank
		// window's width in value space.
		for _, pair := range []struct {
			q      float64
			column float64
		}{{0.50, res.P50ms}, {0.90, res.P90ms}, {0.99, res.P99ms}} {
			if pair.column <= 0 {
				continue
			}
			eps := math.Max(4*math.Sqrt(pair.q*(1-pair.q)), 0.5) / float64(res.RTSketch.Compression())
			lo := tp.sample.Quantile(math.Max(0, pair.q-eps))
			hi := tp.sample.Quantile(math.Min(1, pair.q+eps))
			slack := (hi - lo) + slackMs
			if d := math.Abs(res.RTSketch.Quantile(pair.q) - pair.column); d > slack {
				t.Errorf("%v q=%g: sketch %g vs stored column %g differ by %g (> %g)",
					res.Key, pair.q, res.RTSketch.Quantile(pair.q), pair.column, d, slack)
			}
		}
	}
	if checked != 2*2*3 {
		t.Fatalf("cross-checked %d quantiles; expected 2 experiments × 2 populations × 3 quantiles", checked)
	}
}
