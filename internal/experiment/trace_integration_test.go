package experiment

import (
	"math"
	"strings"
	"testing"

	"elba/internal/bottleneck"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
	"elba/internal/trace"
)

// TestTracedSweepDeterministicAcrossWorkers extends the tentpole
// determinism property to tracing: with every request traced, the stored
// results — trace reports, exemplar span trees and all — and the Chrome
// trace export are byte-identical for every worker count.
func TestTracedSweepDeterministicAcrossWorkers(t *testing.T) {
	traced := func(r *Runner) {
		r.TraceRate = 1
		r.TraceExemplars = 2
	}
	export := func(st *store.Store) string {
		data, err := report.TraceEventsJSON(st, "rubis-it")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	_, baseJSON, baseStore := runGrid(t, 1, traced)
	if !strings.Contains(baseJSON, `"trace"`) {
		t.Fatalf("traced sweep stored no trace reports")
	}
	baseExport := export(baseStore)
	for _, workers := range []int{4, 8} {
		_, jsonText, st := runGrid(t, workers, traced)
		if jsonText != baseJSON {
			t.Fatalf("workers=%d: traced store JSON diverged from sequential run", workers)
		}
		if export(st) != baseExport {
			t.Fatalf("workers=%d: Chrome trace export diverged from sequential run", workers)
		}
	}
}

// TestTracingLeavesMeasurementsUntouched: a traced sweep must measure
// exactly what an untraced sweep measures — tracing is pure observation.
// Only the trace field may differ between the two serializations.
func TestTracingLeavesMeasurementsUntouched(t *testing.T) {
	plainCSV, _, _ := runGrid(t, 2, nil)
	tracedCSV, _, _ := runGrid(t, 2, func(r *Runner) { r.TraceRate = 0.25; r.TraceExemplars = 1 })
	if tracedCSV != plainCSV {
		t.Fatalf("tracing changed measured results:\n--- plain ---\n%s\n--- traced ---\n%s",
			plainCSV, tracedCSV)
	}
}

// TestTraceReportExplainsResponseTime checks the stored trace report of a
// single traced trial: decomposition rows cover every tier, exemplars are
// ordered slowest-first, and each exemplar's spans account for its
// end-to-end response time.
func TestTraceReportExplainsResponseTime(t *testing.T) {
	r := testRunner(t)
	r.TraceRate = 1
	r.TraceExemplars = 4
	e := rubisExperiment(t, `workload { users 100; writeratio 15; }`)
	out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 2, DB: 1}, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Result.Trace
	if tr == nil || tr.Sampled == 0 {
		t.Fatalf("traced trial stored no trace report: %+v", tr)
	}
	tiers := map[string]bool{}
	for _, row := range tr.Rows {
		if row.Interaction == "all" {
			tiers[row.Tier] = true
			if row.Count != tr.Sampled {
				t.Fatalf("aggregate row %s counts %d of %d traces", row.Tier, row.Count, tr.Sampled)
			}
		}
	}
	for _, tier := range []string{"web", "app", "db"} {
		if !tiers[tier] {
			t.Fatalf("decomposition missing tier %s (have %v)", tier, tiers)
		}
	}
	if len(tr.Exemplars) != 4 {
		t.Fatalf("kept %d exemplars, want 4", len(tr.Exemplars))
	}
	for i, ex := range tr.Exemplars {
		if i > 0 && ex.RTms > tr.Exemplars[i-1].RTms {
			t.Fatalf("exemplars not slowest-first: %f after %f", ex.RTms, tr.Exemplars[i-1].RTms)
		}
		var sum float64
		for _, s := range ex.Spans {
			sum += s.WaitMs + s.ServiceMs
		}
		if ex.Outcome == "ok" {
			// Broadcast-write replica legs overlap, so the flat span sum can
			// exceed RT; the per-tier contributions must still match it.
			web, app, db := exemplarContributions(ex.Spans)
			if total := web + app + db; math.Abs(total-ex.RTms) > 1e-6 {
				t.Fatalf("exemplar %d: tier contributions sum to %f ms, RT %f ms", i, total, ex.RTms)
			}
			if sum < ex.RTms-1e-6 {
				t.Fatalf("exemplar %d: spans cover %f ms < RT %f ms", i, sum, ex.RTms)
			}
		}
	}
}

// exemplarContributions mirrors Trace.TierContributions on serialized
// spans: web and app sum, the db tier counts its slowest replica leg.
func exemplarContributions(spans []trace.SpanRecord) (web, app, db float64) {
	for _, s := range spans {
		tot := s.WaitMs + s.ServiceMs
		switch s.Tier {
		case "web":
			web += tot
		case "app":
			app += tot
		case "db":
			if tot > db {
				db = tot
			}
		}
	}
	return
}

// TestTraceVerdictAgreesWithUtilization is the cross-check the tentpole
// promises: on a saturation sweep, the tier the critical paths of traced
// requests point at is the tier the utilization-based detector names.
func TestTraceVerdictAgreesWithUtilization(t *testing.T) {
	r := testRunner(t)
	r.TraceRate = 1
	r.TraceExemplars = 0
	e := rubisExperiment(t, `
		topologies 1-2-1;
		workload { users 100 to 700 step 100; writeratio 15; }`)
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, res := range r.results.All() {
		if res.Trace == nil || !res.Completed {
			continue
		}
		// Detect names a server tier once it passes the near-saturation
		// threshold; below that it answers "none" and there is no CPU-side
		// verdict to compare against.
		cv := bottleneck.Detect(res, bottleneck.DefaultThresholds)
		if cv.Tier != "web" && cv.Tier != "app" && cv.Tier != "db" {
			continue
		}
		checked++
		tv := res.Trace.Verdict
		if tv.Tier != cv.Tier {
			t.Fatalf("%s: critical-path verdict %q (share %.0f%%) disagrees with CPU verdict %q (%s)",
				res.Key, tv.Tier, tv.Share*100, cv.Tier, cv.Reason)
		}
		// At saturation the dominant tier's latency is queueing, not work:
		// the trace-level signature of the paper's CPU-level observation.
		if tv.QueueShare < 0.5 {
			t.Fatalf("%s: saturated %s tier spends only %.0f%% of its latency queued",
				res.Key, tv.Tier, tv.QueueShare*100)
		}
	}
	if checked == 0 {
		t.Fatalf("sweep produced no saturated completed trials to cross-check")
	}
}
