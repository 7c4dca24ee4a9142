package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"elba/internal/report"
	"elba/internal/store"
)

// streamSpecs is the 3-spec matrix the replay tests run: distinct
// experiments, topologies, and grid shapes.
var streamSpecs = []string{
	`experiment "stream-a" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 2; db 1; }
		workload { users 100 to 500 step 100; writeratio 15; }
	}`,
	`experiment "stream-b" {
		benchmark rubbos; platform emulab; appserver tomcat;
		topology { web 1; app 1; db 1; }
		workload { users 200 to 600 step 200; writeratio 10; }
	}`,
	`experiment "stream-c" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 4; db 2; }
		workload { users 100 to 400 step 100; writeratio 5 to 25 step 20; }
	}`,
}

// TestStreamEventFlow subscribes before a streaming campaign runs and
// checks the full event narrative: one trial event per trial with
// monotonic Seq and running quantiles, then exactly one terminal status
// event, then channel close.
func TestStreamEventFlow(t *testing.T) {
	// Subscribe does not replay events already published, so the
	// campaign must not commit a trial before the subscription is in
	// place. A gate campaign ahead of it in the one worker's queue holds
	// the worker in its first trial's OnTrial until then.
	subscribed := make(chan struct{})
	release := sync.OnceFunc(func() { close(subscribed) })
	opts := fastOptions()
	opts.OnTrial = func(store.Result) { <-subscribed }
	svc := NewService(Config{Workers: 1, Stream: true, Options: opts})
	defer svc.Close()
	defer release()
	if _, err := svc.Submit(streamSpecs[1]); err != nil {
		t.Fatal(err)
	}
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Streaming() {
		t.Fatal("campaign not armed for streaming at submit time")
	}
	ch, cancel := c.Subscribe(256)
	defer cancel()
	release()

	var trials, statuses int
	lastSeq := 0
	var lastDone int
	for ev := range ch {
		if ev.Seq <= lastSeq {
			t.Fatalf("Seq not strictly ascending: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case "trial":
			trials++
			if ev.Key == nil || ev.Total != 5 {
				t.Fatalf("malformed trial event: %+v", ev)
			}
			if ev.Done <= lastDone {
				t.Fatalf("Done not advancing: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
			if ev.P50ms <= 0 || ev.P90ms < ev.P50ms || ev.P99ms < ev.P90ms {
				t.Fatalf("running quantiles implausible: %+v", ev)
			}
		case "status":
			statuses++
			if ev.Status != StatusDone {
				t.Fatalf("terminal status %s, want done", ev.Status)
			}
		}
	}
	if trials != 5 || statuses != 1 {
		t.Fatalf("saw %d trial events and %d status events, want 5 and 1", trials, statuses)
	}
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign finished %s", st)
	}
	if tables := c.StreamTables(); !strings.Contains(tables, "stream-") &&
		!strings.Contains(tables, "overlap") {
		t.Fatalf("StreamTables missing the experiment:\n%s", tables)
	}
}

// TestStreamingChangesOnlyTheSketch pins the compatibility contract:
// with streaming on, every stored result gains an RT sketch and changes
// in NO other way — nil out the sketch and the bytes are identical to a
// plain non-streaming run.
func TestStreamingChangesOnlyTheSketch(t *testing.T) {
	want := directStore(t, sweepA)

	svc := NewService(Config{Stream: true, Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign finished %s", st)
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	stripped := store.New()
	for _, r := range results.All() {
		if r.RTSketch == nil {
			t.Fatalf("streamed result %v has no sketch", r.Key)
		}
		if r.RTSketch.Count() == 0 {
			t.Fatalf("streamed result %v has an empty sketch", r.Key)
		}
		r.RTSketch = nil
		stripped.Put(r)
	}
	got, err := stripped.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("streaming changed stored fields beyond rt_sketch")
	}
}

// TestStreamReplayReproducesLiveFold is the record-of-record property
// on a 3-spec matrix at several worker counts: replaying a campaign's
// result log through a fresh Folder reproduces the live folded tables
// byte-for-byte, because the log's record order IS the fold order.
func TestStreamReplayReproducesLiveFold(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		svc := NewService(Config{
			Workers:      workers,
			ResultLogDir: dir, // implies streaming
			Options:      fastOptions(),
		})
		var cs []*Campaign
		for _, src := range streamSpecs {
			c, err := svc.Submit(src)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
		for _, c := range cs {
			if st := c.Wait(); st != StatusDone {
				t.Fatalf("workers=%d: campaign %s finished %s", workers, c.ID(), st)
			}
			if err := c.LogError(); err != nil {
				t.Fatalf("workers=%d: result log failed: %v", workers, err)
			}
			live := c.StreamTables()
			folder := report.NewFolder()
			n, err := ReplayResultLog(c.ResultLogPath(), func(r store.Result) error {
				folder.Ingest(r)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d: replay %s: %v", workers, c.ID(), err)
			}
			if n != c.Progress().TotalTrials {
				t.Fatalf("workers=%d: log holds %d records, campaign ran %d trials",
					workers, n, c.Progress().TotalTrials)
			}
			if replayed := folder.Tables(); replayed != live {
				t.Fatalf("workers=%d: replayed tables differ from live fold for %s:\n--- live\n%s\n--- replay\n%s",
					workers, c.ID(), live, replayed)
			}
		}
		svc.Close()
	}
}

// TestStreamSlowSubscriberDropsOldest: a subscriber that never reads
// while the campaign runs must not block it; when it finally drains, it
// sees a Seq gap (dropped prefix), still-ascending ordering, and the
// terminal status event last.
func TestStreamSlowSubscriberDropsOldest(t *testing.T) {
	svc := NewService(Config{Stream: true, Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(`experiment "long" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 2; db 1; }
		workload { users 100 to 3000 step 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := c.Subscribe(16) // minimum depth; 30 trials overflow it
	defer cancel()
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign finished %s", st)
	}
	var evs []StreamEvent
	for ev := range ch {
		evs = append(evs, ev)
	}
	if len(evs) == 0 || len(evs) > 16 {
		t.Fatalf("drained %d events from a depth-16 queue", len(evs))
	}
	if evs[0].Seq == 1 {
		t.Fatal("no events were dropped despite queue overflow")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("Seq regressed after drops: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != "status" || last.Status != StatusDone {
		t.Fatalf("newest event is %+v, want the terminal status", last)
	}
}

// TestStreamSubscribeAfterTerminal: late subscribers get the terminal
// status and an immediately closed channel; cancelled-while-queued
// campaigns close their streams too.
func TestStreamSubscribeAfterTerminal(t *testing.T) {
	svc := NewService(Config{Stream: true, Options: fastOptions()})
	defer svc.Close()
	c, err := svc.Submit(sweepA)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Wait(); st != StatusDone {
		t.Fatalf("campaign finished %s", st)
	}
	ch, cancel := c.Subscribe(0)
	defer cancel()
	ev, ok := <-ch
	if !ok || ev.Kind != "status" || ev.Status != StatusDone {
		t.Fatalf("late subscriber got %+v (ok=%v), want a done status event", ev, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber's channel not closed after the status event")
	}
}

func TestStreamClosedOnQueuedCancel(t *testing.T) {
	started := make(chan struct{})
	opts := fastOptions()
	var once bool
	opts.OnTrial = func(store.Result) {
		if !once {
			once = true
			close(started)
		}
	}
	svc := NewService(Config{Workers: 1, Stream: true, Options: opts})
	defer svc.Close()
	if _, err := svc.Submit(sweepA); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(sweepB)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := queued.Subscribe(0)
	defer cancel()
	<-started
	if ok, err := svc.Cancel(queued.ID()); err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	var last StreamEvent
	for ev := range ch {
		last = ev
	}
	if last.Kind != "status" || last.Status != StatusCancelled {
		t.Fatalf("queued-cancel stream ended with %+v, want cancelled status", last)
	}
}

// TestStreamEventJSONShape: the wire encoding stays lean — trial-only
// fields are omitted from status events and vice versa.
func TestStreamEventJSONShape(t *testing.T) {
	data, err := json.Marshal(StreamEvent{Kind: "status", Campaign: "c0001", Seq: 7, Status: StatusDone})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, forbidden := range []string{"key", "throughput_rps", "p50_ms", "done", "total", "message"} {
		if strings.Contains(s, `"`+forbidden+`":`) {
			t.Errorf("status event leaks %q: %s", forbidden, s)
		}
	}
	if !strings.Contains(s, `"status":"done"`) {
		t.Errorf("status event missing status: %s", s)
	}
}

// TestRestartedServiceLogsOnlyItsOwnCampaigns runs two Services in turn
// on one result log directory, as a restarted elbad would. The second
// Service's IDs restart at c0001, so its first campaign must skip the
// ID whose log the first one left; each log must replay to exactly its
// own campaign's live tables.
func TestRestartedServiceLogsOnlyItsOwnCampaigns(t *testing.T) {
	dir := t.TempDir()
	for i, src := range streamSpecs[:2] {
		svc := NewService(Config{ResultLogDir: dir, Options: fastOptions()})
		c, err := svc.Submit(src)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Wait(); st != StatusDone {
			t.Fatalf("service %d: campaign %s finished %s", i, c.ID(), st)
		}
		svc.Close()
		folder := report.NewFolder()
		n, err := ReplayResultLog(c.ResultLogPath(), func(r store.Result) error {
			folder.Ingest(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Progress().TotalTrials; n != want {
			t.Fatalf("service %d: log %s holds %d records, campaign %s ran %d trials",
				i, c.ResultLogPath(), n, c.ID(), want)
		}
		if live, replayed := c.StreamTables(), folder.Tables(); replayed != live {
			t.Fatalf("service %d: replayed tables differ from the live fold of %s:\n--- live\n%s\n--- replay\n%s",
				i, c.ID(), live, replayed)
		}
	}
}

// TestRefusedSubmissionLeavesNoResultLog fills a one-deep queue behind a
// held worker: the refused submissions must leave no result log in the
// directory, only the running and the queued campaign have one.
func TestRefusedSubmissionLeavesNoResultLog(t *testing.T) {
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
	dir := t.TempDir()
	svc := NewService(Config{Workers: 1, QueueDepth: 1, ResultLogDir: dir, Options: opts})
	defer svc.Close()
	defer close(release) // before Close, which waits for the held worker
	running, err := svc.Submit(streamSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(streamSpecs[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(streamSpecs[2]); err == nil || !strings.Contains(err.Error(), "queue full") {
			t.Fatalf("submission %d into a full queue: err = %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, filepath.Join(dir, e.Name()))
	}
	want := []string{running.ResultLogPath(), queued.ResultLogPath()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result log directory holds %v, want %v", got, want)
	}
}
