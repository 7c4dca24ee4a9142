package report

import (
	"math/rand/v2"
	"strings"
	"testing"

	"elba/internal/metrics"
	"elba/internal/store"
)

func TestKneeDetectorLinearThenFlat(t *testing.T) {
	// Linear rise to 700 users, then flat: the knee is the first flat
	// segment's endpoint.
	var k KneeDetector
	series := []struct {
		users int
		thru  float64
	}{
		{100, 50}, {200, 100}, {300, 150}, {400, 200}, {500, 250},
		{600, 300}, {700, 340}, {800, 345}, {900, 346}, {1000, 346},
	}
	knee := 0
	for _, p := range series {
		if k.Observe(p.users, p.thru) {
			if knee != 0 {
				t.Fatal("knee fired twice")
			}
			knee = p.users
		}
	}
	if knee != 800 {
		t.Fatalf("knee at %d users, want 800", knee)
	}
	if k.Knee() != 800 {
		t.Fatalf("Knee() = %d, want 800", k.Knee())
	}
}

func TestKneeDetectorThroughputDrop(t *testing.T) {
	// A throughput drop (retrograde region) is a knee even if the series
	// never flattened first.
	var k KneeDetector
	for _, p := range []struct {
		users int
		thru  float64
	}{{100, 50}, {200, 100}, {300, 90}} {
		if k.Observe(p.users, p.thru) && p.users != 300 {
			t.Fatalf("knee fired at %d users", p.users)
		}
	}
	if k.Knee() != 300 {
		t.Fatalf("Knee() = %d, want 300", k.Knee())
	}
}

func TestKneeDetectorNoKneeOnLinear(t *testing.T) {
	var k KneeDetector
	for u := 100; u <= 2000; u += 100 {
		if k.Observe(u, float64(u)/2) {
			t.Fatalf("knee fired at %d users on a purely linear series", u)
		}
	}
}

func TestKneeDetectorIgnoresNonAscending(t *testing.T) {
	var k KneeDetector
	k.Observe(100, 50)
	k.Observe(200, 100)
	k.Observe(200, 100) // replica at the same population
	k.Observe(100, 50)  // out of order
	if k.Observe(300, 150) {
		t.Fatal("knee fired on a linear series with repeated points")
	}
}

// sketchedResult builds a completed result carrying a real sketch.
func sketchedResult(exp, topo string, users int, wr, thru float64) store.Result {
	d := metrics.NewTDigest(metrics.DefaultTDigestCompression)
	rng := rand.New(rand.NewPCG(uint64(users), 7))
	for i := 0; i < 500; i++ {
		d.Observe(50 + 10*rng.NormFloat64() + float64(users)/10)
	}
	return store.Result{
		Key:        store.Key{Experiment: exp, Topology: topo, Users: users, WriteRatioPct: wr},
		Completed:  true,
		Requests:   500,
		Throughput: thru,
		TierCPU:    map[string]float64{"app": 40, "db": 20},
		RTSketch:   d,
	}
}

func TestFolderEventsAndTables(t *testing.T) {
	f := NewFolder()
	var kinds []string
	ingest := func(r store.Result) {
		for _, ev := range f.Ingest(r) {
			kinds = append(kinds, ev.Kind)
		}
	}
	// Rising then saturating series → knee.
	thru := []float64{50, 100, 150, 155, 156}
	for i, x := range thru {
		ingest(sketchedResult("exp-a", "1-2-1", 100*(i+1), 10, x))
	}
	// SLO onset and failure onset on a second series.
	r := sketchedResult("exp-a", "1-4-1", 100, 10, 60)
	r.SLOAssert = "p90 < 500ms"
	r.SLOWindows = 10
	ingest(r)
	r2 := sketchedResult("exp-a", "1-4-1", 200, 10, 110)
	r2.SLOAssert = "p90 < 500ms"
	r2.SLOWindows = 10
	r2.SLOViolations = 4
	ingest(r2)
	r3 := sketchedResult("exp-a", "1-4-1", 300, 10, 0)
	r3.Completed = false
	r3.FailReason = "error rate 12.0% exceeds 5%"
	ingest(r3)

	want := []string{"knee", "slo-onset", "failure-onset"}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want kinds %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, kinds[i], want[i])
		}
	}

	tables := f.Tables()
	for _, needle := range []string{
		"Streamed campaign summary", "exp-a",
		"Streamed resource utilization", "app",
		"Streamed SLO & scaling",
		"Detected knees & onsets", "1-2-1", "1-4-1",
	} {
		if !strings.Contains(tables, needle) {
			t.Errorf("tables missing %q:\n%s", needle, tables)
		}
	}
	rows := f.Knees()
	if len(rows) != 2 {
		t.Fatalf("Knees() = %d rows, want 2", len(rows))
	}
	if rows[0].Topology != "1-2-1" || rows[0].KneeUsers != 400 {
		t.Errorf("row 0 = %+v, want 1-2-1 knee at 400", rows[0])
	}
	if rows[1].SLOOnsetUsers != 200 || rows[1].FailUsers != 300 {
		t.Errorf("row 1 = %+v, want slo-onset 200 / failure 300", rows[1])
	}
}

// TestFolderReplayReproduces: folding the same result sequence twice
// yields byte-identical tables and the same events — the property that
// makes the result log a complete record of a streamed campaign.
func TestFolderReplayReproduces(t *testing.T) {
	build := func() (string, int) {
		f := NewFolder()
		events := 0
		for _, topo := range []string{"1-1-1", "1-2-1", "1-2-2"} {
			thrus := []float64{60, 120, 175, 185, 187, 187}
			for i, x := range thrus {
				r := sketchedResult("rep", topo, 100*(i+1), 25, x*float64(len(topo)))
				events += len(f.Ingest(r))
			}
		}
		return f.Tables(), events
	}
	t1, e1 := build()
	t2, e2 := build()
	if t1 != t2 {
		t.Fatalf("replayed tables differ:\n%s\n---\n%s", t1, t2)
	}
	if e1 != e2 {
		t.Fatalf("replayed event counts differ: %d vs %d", e1, e2)
	}
}

// TestFolderQuantilesMatchMergedSketch: the folder's campaign-level
// quantiles must equal merging the same trial sketches by hand in the
// same order.
func TestFolderQuantilesMatchMergedSketch(t *testing.T) {
	f := NewFolder()
	manual := metrics.NewTDigest(metrics.DefaultTDigestCompression)
	for i := 1; i <= 12; i++ {
		r := sketchedResult("q", "1-2-1", 100*i, 10, float64(40*i))
		manual.Merge(r.RTSketch)
		f.Ingest(r)
	}
	qs, approx, ok := f.Quantiles("q", 0.5, 0.9, 0.99)
	if !ok || approx {
		t.Fatalf("Quantiles: ok=%v approx=%v", ok, approx)
	}
	for i, q := range []float64{0.5, 0.9, 0.99} {
		if want := manual.Quantile(q); qs[i] != want {
			t.Errorf("q=%g: folder %g != manual merge %g", q, qs[i], want)
		}
	}
}

// TestFolderSketchFreeFallback: results without sketches still fold in
// (via the weighted-percentile fallback) and flag the quantiles
// approximate.
func TestFolderSketchFreeFallback(t *testing.T) {
	f := NewFolder()
	r := store.Result{
		Key:        store.Key{Experiment: "fluid", Topology: "1-2-1", Users: 5000, WriteRatioPct: 10},
		Completed:  true,
		Requests:   100000,
		Throughput: 900,
		P50ms:      40, P90ms: 80, P99ms: 200, MaxRTms: 500,
	}
	f.Ingest(r)
	qs, approx, ok := f.Quantiles("fluid", 0.5)
	if !ok || !approx {
		t.Fatalf("fallback fold: ok=%v approx=%v", ok, approx)
	}
	if qs[0] < 30 || qs[0] > 90 {
		t.Errorf("fallback p50 = %g, want near the stored 40ms", qs[0])
	}
	if !strings.Contains(f.Tables(), "~") {
		t.Error("approximate quantiles not flagged in tables")
	}
}

// TestFolderMemoryBounded is the O(sketch) demonstration: folding 10⁵
// trials leaves one capped digest per experiment and one small state
// record per series — never the trials themselves. The merged digest's
// centroid count must respect the documented cap at any volume.
func TestFolderMemoryBounded(t *testing.T) {
	f := NewFolder()
	const trials = 100000
	const seriesPer = 8
	rng := rand.New(rand.NewPCG(11, 13))
	d := metrics.NewTDigest(metrics.DefaultTDigestCompression)
	for i := 0; i < 2000; i++ {
		d.Observe(rng.ExpFloat64() * 100)
	}
	for i := 0; i < trials; i++ {
		topoN := i % seriesPer
		r := store.Result{
			Key: store.Key{
				Experiment:    "big",
				Topology:      string(rune('a' + topoN)),
				Users:         100 * (i/seriesPer + 1),
				WriteRatioPct: 10,
			},
			Completed:  true,
			Requests:   1000,
			Throughput: 100,
			RTSketch:   d,
		}
		f.Ingest(r)
	}
	agg, ok := f.exps["big"]
	if !ok {
		t.Fatal("no merged sketch")
	}
	sk := agg.sketch
	if sk.Count() != uint64(trials)*2000 {
		t.Fatalf("merged count %d, want %d", sk.Count(), trials*2000)
	}
	if sk.Centroids() > sk.MaxCentroids() {
		t.Fatalf("merged sketch holds %d centroids, cap %d — memory not O(sketch)",
			sk.Centroids(), sk.MaxCentroids())
	}
	if agg.trials != trials {
		t.Fatalf("folded %d trials, want %d", agg.trials, trials)
	}
}

// TestFolderIngestZeroAllocs pins the steady-state allocation contract:
// once an experiment's aggregates exist, a quiet trial folds in without
// allocating.
func TestFolderIngestZeroAllocs(t *testing.T) {
	f := NewFolder()
	rs := make([]store.Result, 4)
	for i := range rs {
		rs[i] = sketchedResult("alloc", "1-2-1", 100*(i+1), 10, float64(50*(i+1)))
		rs[i].TierCPU = nil // map iteration itself is alloc-free; keep the shape minimal
	}
	for _, r := range rs {
		f.Ingest(r)
	}
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		f.Ingest(rs[i&3]) // repeated populations: knee detector ignores them
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Ingest allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkFolderIngest(b *testing.B) {
	f := NewFolder()
	rs := make([]store.Result, 8)
	for i := range rs {
		rs[i] = sketchedResult("bench", "1-2-1", 100*(i+1), 10, float64(50*(i+1)))
	}
	for _, r := range rs {
		f.Ingest(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Ingest(rs[i&7])
	}
}
