package experiment

import (
	"math"
	"os"
	"testing"

	"elba/internal/metrics"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// desSample re-runs the DES trial behind res on the engine seam, with
// RunTrial's protocol up to the end of the measured run, and returns the
// engine's success sample in completion order (milliseconds) and the
// request statistics the engine fills from it. The monitor and the
// cool-down, which RunTrial adds, draw nothing from the trial's random
// streams and record nothing after the run, so the sample is the one the
// stored result was built from; the caller checks that against the
// stored percentiles.
func desSample(t *testing.T, r *Runner, e *spec.Experiment, res store.Result) ([]float64, store.Result) {
	t.Helper()
	var sample []float64
	var filled store.Result
	for _, topo := range e.AllTopologies() {
		if topo.String() != res.Key.Topology {
			continue
		}
		err := r.withDeployment(e, topo, "", func(dep *deployed) error {
			pl, err := planTrial(dep.e, dep.d, dep.placement, r.trialConfig(dep, res.Key.Users, res.Key.WriteRatioPct))
			if err != nil {
				return err
			}
			warm, run := e.Trial.WarmupSec*pl.ts, e.Trial.RunSec*pl.ts
			pl.warm, pl.rampUp = warm, min(warm/2, 10)
			k := sim.NewKernel(pl.seed)
			defer k.Release()
			eng, err := pl.newEngine(k)
			if err != nil {
				return err
			}
			de := eng.(*desEngine)
			de.advance(warm)
			de.measure(true)
			de.advance(warm + run)
			de.measure(false)
			for _, rt := range de.driver.ResponseTimes().Since(0) {
				sample = append(sample, rt*1000)
			}
			filled = de.fill(store.Result{})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if sample == nil {
		t.Fatalf("%v: no DES sample", res.Key)
	}
	return sample, filled
}

// TestSketchCrosscheckRubbosBaseline folds the real per-request RT
// streams of the paper's RUBBoS baseline spec and cross-checks the stored
// sketch against the exact sample at p50/p90/p99:
//
//   - the stored Result.RTSketch must equal a digest fed the engine's
//     success sample in completion order, and fold every value of it;
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

	r := testRunner(t)
	r.SketchRT = true
	for _, e := range doc.Experiments {
		// The full paper grid runs to 5000 users; two populations per
		// experiment exercise the same code at test cost.
		e.Workload.Users = spec.Range{Lo: 500, Hi: 1000, Step: 500}
		if err := r.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]*spec.Experiment{}
	for _, e := range doc.Experiments {
		byName[e.Name] = e
	}

	// Value-space slack, in ms, for comparing the sketch with the stored
	// percentile columns.
	const slackMs = 5.0
	checked := 0
	for _, res := range r.results.All() {
		if res.RTSketch == nil {
			t.Fatalf("no sketch for %v", res.Key)
		}
		ms, filled := desSample(t, r, byName[res.Key.Experiment], res)
		exact := metrics.NewSample(len(ms))
		digest := metrics.NewTDigest(metrics.DefaultTDigestCompression)
		for _, v := range ms {
			exact.Observe(v)
			digest.Observe(v)
		}
		digest.Compress()
		if got, want := res.RTSketch.Count(), uint64(exact.Count()); got != want {
			t.Fatalf("%v: sketch folded %d observations, the sample holds %d", res.Key, got, want)
		}
		if filled.Requests != res.Requests || filled.P50ms != res.P50ms || filled.P99ms != res.P99ms {
			t.Fatalf("%v: the re-run trial measured %d requests, p50 %g, p99 %g; stored %d, %g, %g",
				res.Key, filled.Requests, filled.P50ms, filled.P99ms, res.Requests, res.P50ms, res.P99ms)
		}
		for _, q := range []float64{0.50, 0.90, 0.99} {
			stored := res.RTSketch.Quantile(q)
			if independent := digest.Quantile(q); stored != independent {
				t.Errorf("%v q=%g: stored sketch %g != a digest of the engine's sample %g",
					res.Key, q, stored, independent)
			}
			// Rank-error window: the digest's q-quantile must lie between
			// the exact quantiles at q±ε.
			eps := math.Max(4*math.Sqrt(q*(1-q)), 0.5) / float64(res.RTSketch.Compression())
			lo := exact.Quantile(math.Max(0, q-eps))
			hi := exact.Quantile(math.Min(1, q+eps))
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
			lo := exact.Quantile(math.Max(0, pair.q-eps))
			hi := exact.Quantile(math.Min(1, pair.q+eps))
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
