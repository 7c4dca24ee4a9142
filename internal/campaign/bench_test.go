package campaign

import (
	"path/filepath"
	"sync"
	"testing"

	"elba/internal/core"
	"elba/internal/experiment"
	"elba/internal/store"
)

// warmSweep is a 10-point RUBiS sweep: two topologies × five populations.
const warmSweep = `experiment "warm" {
	benchmark rubis; platform emulab; appserver jonas;
	topologies 1-1-1, 1-2-1;
	workload { users 100 to 500 step 100; writeratio 15; }
}`

// BenchmarkWarmCampaign measures a campaign whose every point is a cache
// hit, as elbad serves a resubmitted document: submit, wait, then read
// the results JSON and the report. What it costs is the per-campaign
// set-up, the cache read path, the store and the report; no trial runs.
func BenchmarkWarmCampaign(b *testing.B) {
	svc := NewService(Config{Options: core.Options{TimeScale: 0.05}})
	defer svc.Close()
	run := func() Progress {
		c, err := svc.Submit(warmSweep)
		if err != nil {
			b.Fatal(err)
		}
		if st := c.Wait(); st != StatusDone {
			b.Fatalf("campaign finished %s: %+v", st, c.Progress())
		}
		res, err := c.Results()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Report(); err != nil {
			b.Fatal(err)
		}
		return c.Progress()
	}
	if p := run(); p.CacheMisses != 10 {
		b.Fatalf("cold run: %d misses, want 10", p.CacheMisses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := run(); p.CacheHits != 10 || p.CacheMisses != 0 {
			b.Fatalf("warm run: %d hits / %d misses, want 10 / 0", p.CacheHits, p.CacheMisses)
		}
	}
}

// warmResults runs warmSweep once per process and returns its ten RUBiS
// results, the records the durable-path benchmarks write and read.
var warmResults = sync.OnceValues(func() ([]store.Result, error) {
	c, err := core.New(core.Options{TimeScale: 0.05})
	if err != nil {
		return nil, err
	}
	if err := c.RunTBL(warmSweep); err != nil {
		return nil, err
	}
	return c.Results().All(), nil
})

// BenchmarkResultLogAppend measures committing one RUBiS trial result to
// a result log: marshal, frame, write and fsync.
func BenchmarkResultLogAppend(b *testing.B) {
	rs, err := warmResults()
	if err != nil {
		b.Fatal(err)
	}
	l, err := OpenResultLog(filepath.Join(b.TempDir(), "c0001.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rs[i%len(rs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// reopenEntries is the number of entries BenchmarkCacheReopen loads:
// warm-replay's cold fill of 30 ten-point documents.
const reopenEntries = 300

// BenchmarkCacheReopen measures OpenCache over a directory of 300 RUBiS
// entries, as a restarted elbad or warm-replay's set-up reopens its
// cache.
func BenchmarkCacheReopen(b *testing.B) {
	rs, err := warmResults()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	fill, err := OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < reopenEntries; i++ {
		k := experiment.TrialKey{SpecHash: "reopen", Topology: "1-1-1", Users: 100, Engine: "des", Seed: uint64(i + 1)}
		if _, _, err := fill.Do(k, func() (store.Result, error) { return rs[i%len(rs)], nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := c.Stats().Loaded; n != reopenEntries {
			b.Fatalf("reopened cache loaded %d entries, want %d", n, reopenEntries)
		}
	}
}
