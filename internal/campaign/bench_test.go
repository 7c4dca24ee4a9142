package campaign

import (
	"testing"

	"elba/internal/core"
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
