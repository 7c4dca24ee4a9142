package campaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"elba/internal/core"
	"elba/internal/spec"
	"elba/internal/store"
)

// Two overlapping sweeps of the same experiment: the user grids share
// populations 300–500, so 3 of the 10 requested trials are redundant.
const sweepA = `experiment "overlap" {
	benchmark rubis; platform emulab; appserver jonas;
	topology { web 1; app 2; db 1; }
	workload { users 100 to 500 step 100; writeratio 15; }
}`

const sweepB = `experiment "overlap" {
	benchmark rubis; platform emulab; appserver jonas;
	topology { web 1; app 2; db 1; }
	workload { users 300 to 700 step 100; writeratio 15; }
}`

// fastOptions is the shared per-campaign configuration: the reduced
// trial protocol the rest of the test suite uses.
func fastOptions() core.Options {
	return core.Options{TimeScale: 0.1}
}

// directStore runs src through a plain characterizer — no service, no
// cache — and returns its result store's canonical JSON: the reference
// bytes every cached campaign must reproduce exactly.
func directStore(t *testing.T, src string) []byte {
	t.Helper()
	c, err := core.New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTBL(src); err != nil {
		t.Fatal(err)
	}
	data, err := c.Results().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func campaignJSON(t *testing.T, c *Campaign) []byte {
	t.Helper()
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign %s finished %s: %+v", c.ID(), st, c.Progress())
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	data, err := results.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOverlappingCampaignsDeterministicAcrossWorkerCounts is the
// subsystem's core determinism property: the same two overlapping
// campaigns, submitted together, store byte-identical results at every
// worker count — identical to uncached direct runs — and the shared
// cache's hit/miss totals are a pure function of the submitted
// workload (hits = requests − unique tuples), not of scheduling.
func TestOverlappingCampaignsDeterministicAcrossWorkerCounts(t *testing.T) {
	wantA := directStore(t, sweepA)
	wantB := directStore(t, sweepB)
	for _, workers := range []int{1, 4, 8} {
		svc := NewService(Config{Workers: workers, Options: fastOptions()})
		ca, err := svc.Submit(sweepA)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := svc.Submit(sweepB)
		if err != nil {
			t.Fatal(err)
		}
		gotA := campaignJSON(t, ca)
		gotB := campaignJSON(t, cb)
		svc.Close()
		if !bytes.Equal(gotA, wantA) {
			t.Fatalf("workers=%d: campaign A store differs from the direct run", workers)
		}
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("workers=%d: campaign B store differs from the direct run", workers)
		}
		stats := svc.Cache().Stats()
		// 5 + 5 requested tuples, 7 unique: exactly 7 computations and 3
		// hits at any worker count, thanks to single-flight coalescing.
		if stats.Misses != 7 || stats.Hits != 3 || stats.Entries != 7 {
			t.Fatalf("workers=%d: cache stats %+v, want 7 misses / 3 hits / 7 entries",
				workers, stats)
		}
		pa, pb := ca.Progress(), cb.Progress()
		if pa.CacheHits+pb.CacheHits != 3 || pa.CacheMisses+pb.CacheMisses != 7 {
			t.Fatalf("workers=%d: per-campaign counters %+v / %+v do not sum to 3 hits / 7 misses",
				workers, pa, pb)
		}
		if pa.DoneTrials != 5 || pb.DoneTrials != 5 {
			t.Fatalf("workers=%d: done trials %d / %d, want 5 / 5", workers, pa.DoneTrials, pb.DoneTrials)
		}
	}
}

// TestCachePersistsAcrossOpens pins the on-disk index: a second service
// opening the same directory serves a re-submitted campaign entirely
// from disk, byte-identically, without computing a single trial.
func TestCachePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	cache1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := NewService(Config{Cache: cache1, Options: fastOptions()})
	c1, err := svc1.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	first := campaignJSON(t, c1)
	svc1.Close()
	if s := cache1.Stats(); s.Misses != 5 || s.Hits != 0 {
		t.Fatalf("first run stats %+v, want 5 misses / 0 hits", s)
	}

	cache2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cache2.Stats().Loaded != 5 {
		t.Fatalf("reopened cache loaded %d entries, want 5", cache2.Stats().Loaded)
	}
	svc2 := NewService(Config{Cache: cache2, Options: fastOptions()})
	c2, err := svc2.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	second := campaignJSON(t, c2)
	svc2.Close()
	if s := cache2.Stats(); s.Misses != 0 || s.Hits != 5 {
		t.Fatalf("replayed run stats %+v, want 0 misses / 5 hits", s)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("disk-replayed store differs from the original run")
	}
}

// TestCancelStopsMidSweep cancels a campaign from its first trial
// callback: the sweep must stop between trials, finish as cancelled,
// keep its completed prefix private, and refuse to publish results.
func TestCancelStopsMidSweep(t *testing.T) {
	opts := fastOptions()
	var svc *Service
	opts.OnTrial = func(store.Result) {
		svc.Cancel("c0001") // ids are deterministic per service
	}
	svc = NewService(Config{Options: opts})
	defer svc.Close()
	c, err := svc.Submit(`experiment "long" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 2; db 1; }
		workload { users 100 to 3000 step 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Wait(); st != StatusCancelled {
		t.Fatalf("cancelled campaign finished %s", st)
	}
	p := c.Progress()
	if p.DoneTrials == 0 || p.DoneTrials >= p.TotalTrials {
		t.Fatalf("cancellation should keep a strict prefix: %d of %d trials", p.DoneTrials, p.TotalTrials)
	}
	if p.Error == "" {
		t.Fatalf("cancelled progress should carry the cause")
	}
	if _, err := c.Results(); err == nil {
		t.Fatalf("cancelled campaign must not publish results")
	}
}

// TestCancelQueuedCampaign: a campaign cancelled before any worker
// picks it up terminalizes immediately and never runs a trial.
func TestCancelQueuedCampaign(t *testing.T) {
	// One worker, held in the first campaign's first trial until the test
	// returns: the second submission waits in the queue where the
	// cancellation must catch it, however fast the first campaign runs.
	started := make(chan struct{})
	release := make(chan struct{})
	opts := fastOptions()
	var once bool
	opts.OnTrial = func(store.Result) {
		if !once {
			once = true
			close(started)
			<-release
		}
	}
	svc := NewService(Config{Workers: 1, Options: opts})
	defer svc.Close()
	defer close(release) // before Close, which waits for the held worker
	if _, err := svc.Submit(sweepA); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(sweepB)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ok, err := svc.Cancel(queued.ID())
	if err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	if st := queued.Wait(); st != StatusCancelled {
		t.Fatalf("queued campaign finished %s", st)
	}
	if p := queued.Progress(); p.DoneTrials != 0 {
		t.Fatalf("queued campaign ran %d trials after cancellation", p.DoneTrials)
	}
	queued.mu.Lock()
	doc := queued.doc
	queued.mu.Unlock()
	if doc != nil {
		t.Fatal("campaign cancelled in the queue still holds its parsed document")
	}
	// Cancelling a terminal campaign is a no-op.
	if ok, err := svc.Cancel(queued.ID()); err != nil || ok {
		t.Fatalf("re-cancel: ok=%v err=%v, want false, nil", ok, err)
	}
}

// TestKneeSearchHitsCampaignCache is the re-anchored knee search
// acceptance path: after a campaign sweeps a user grid, a knee search
// over the same bracket — probing only grid populations — runs against
// the shared cache and spends zero fresh trials.
func TestKneeSearchHitsCampaignCache(t *testing.T) {
	svc := NewService(Config{Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("sweep finished %s", st)
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	rt := func(users int) float64 {
		r, ok := results.Get(store.Key{Experiment: "overlap", Topology: "1-2-1",
			Users: users, WriteRatioPct: 15})
		if !ok {
			t.Fatalf("sweep missing u=%d", users)
		}
		return r.AvgRTms
	}
	lo, hi := rt(100), rt(500)
	if hi <= lo {
		t.Fatalf("response time not rising across the sweep (%.1f → %.1f ms)", lo, hi)
	}
	// An SLO strictly between the bracket anchors forces a full
	// bisection; every probe lands on the already-swept 100-step grid.
	slo := (lo + hi) / 2

	opts := fastOptions()
	opts.TrialCache = svc.Cache()
	char, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := char.Runner().KneeSearch(doc.Experiments[0], spec.Topology{Web: 1, App: 2, DB: 1},
		15, slo, 100, 500, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 0 {
		t.Fatalf("re-anchored search spent %d fresh trials over a swept bracket: %+v", res.Trials, res)
	}
	if hits := char.Runner().CacheHits(); hits < 3 {
		t.Fatalf("search served %d probes from the cache, want the full bisection (>= 3)", hits)
	}
	if res.Users < 100 || res.ViolationUsers > 500 || res.Users >= res.ViolationUsers {
		t.Fatalf("implausible knee bracket: %+v", res)
	}
}

// TestSubmitValidation: parse errors surface synchronously with their
// positions, and an empty document is rejected.
func TestSubmitValidation(t *testing.T) {
	svc := NewService(Config{Options: fastOptions()})
	defer svc.Close()
	_, err := svc.Submit("experiment \"bad\" {\n\tbenchmark rubis platform emulab;\n}")
	if err == nil {
		t.Fatal("malformed TBL accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("parse error lost its position: %v", err)
	}
	if _, err := svc.Submit("// nothing declared\n"); err == nil {
		t.Fatal("empty document accepted")
	}
	if len(svc.List()) != 0 {
		t.Fatalf("rejected submissions leaked into the campaign list")
	}
}

// TestReportRendersThroughputGrid smoke-tests the service-side report:
// a finished campaign renders the Table 7 grid for its sweep.
func TestReportRendersThroughputGrid(t *testing.T) {
	svc := NewService(Config{Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign finished %s", st)
	}
	out, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`experiment "overlap"`, "1-2-1", "500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// A still-running or failed campaign has no report.
	if _, err := (&Campaign{id: "x", status: StatusRunning}).Report(); err == nil {
		t.Fatal("running campaign should not render a report")
	}
}

// TestFinishedCampaignReleasesCharacterizer pins what a finished campaign
// keeps: its results and final cache counts, not the characterizer that
// produced them, so a long-lived Service does not pin one per campaign.
func TestFinishedCampaignReleasesCharacterizer(t *testing.T) {
	svc := NewService(Config{Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	data := campaignJSON(t, c)
	c.mu.Lock()
	char := c.char
	c.mu.Unlock()
	if char != nil {
		t.Fatal("finished campaign still holds its characterizer")
	}
	if !bytes.Equal(data, directStore(t, sweepA)) {
		t.Fatal("finished campaign's results differ from the direct run")
	}
	if p := c.Progress(); p.CacheMisses != 5 || p.CacheHits != 0 {
		t.Fatalf("final cache counts %d hits / %d misses, want 0 / 5", p.CacheHits, p.CacheMisses)
	}
	if _, err := c.Report(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedCampaignDropsDocument: a finished campaign keeps no parsed
// document, and its results, report and progress, which come from what
// it does keep, are those of the document's direct run.
func TestFinishedCampaignDropsDocument(t *testing.T) {
	src := sweepA + strings.Replace(sweepB, `"overlap"`, `"overlap-b"`, 1)
	svc := NewService(Config{Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(src)
	if err != nil {
		t.Fatal(err)
	}
	data := campaignJSON(t, c)
	c.mu.Lock()
	doc := c.doc
	c.mu.Unlock()
	if doc != nil {
		t.Fatal("finished campaign still holds its parsed document")
	}
	if !bytes.Equal(data, directStore(t, src)) {
		t.Fatal("finished campaign's results differ from the direct run")
	}
	direct, err := core.New(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.RunTBL(src); err != nil {
		t.Fatal(err)
	}
	names := []string{"overlap", "overlap-b"}
	want, err := (&Campaign{names: names, status: StatusDone, results: direct.Results()}).Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Report()
	if err != nil || got != want || !strings.Contains(got, `experiment "overlap-b"`) {
		t.Fatalf("report (err %v):\n%s\nwant:\n%s", err, got, want)
	}
	p := c.Progress()
	if p.Status != StatusDone || !reflect.DeepEqual(p.Experiments, names) ||
		p.TotalTrials != 10 || p.DoneTrials != 10 || p.CacheMisses != 10 || p.Error != "" {
		t.Fatalf("progress %+v", p)
	}
}
