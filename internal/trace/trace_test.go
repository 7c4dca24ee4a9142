package trace

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

func mkTrace(interaction string, rt float64, spans ...Span) *Trace {
	t := &Trace{Interaction: interaction, RT: rt, Outcome: "ok"}
	t.Spans = append(t.Spans, spans...)
	return t
}

func TestTierContributionsSequentialAndFanOut(t *testing.T) {
	// A write with three db replica legs: db contribution is the slowest
	// leg's wait+service, not the sum and not independent maxima.
	tr := mkTrace("PutBid", 0,
		Span{Tier: TierWeb, Station: "WEB1", Wait: 0.01, Service: 0.02},
		Span{Tier: TierApp, Station: "JONAS1", Wait: 0.03, Service: 0.04},
		Span{Tier: TierDB, Station: "MYSQL1", Wait: 0.10, Service: 0.01},
		Span{Tier: TierDB, Station: "MYSQL2", Wait: 0.02, Service: 0.05},
		Span{Tier: TierDB, Station: "MYSQL3", Wait: 0.00, Service: 0.12},
	)
	web, app, db := tr.TierContributions()
	if web.WaitSec != 0.01 || web.ServiceSec != 0.02 {
		t.Errorf("web contribution = %+v", web)
	}
	if app.WaitSec != 0.03 || app.ServiceSec != 0.04 {
		t.Errorf("app contribution = %+v", app)
	}
	// Slowest leg is MYSQL3 at 0.12 total (MYSQL1 is 0.11, MYSQL2 0.07).
	if db.WaitSec != 0 || db.ServiceSec != 0.12 {
		t.Errorf("db contribution = %+v, want slowest leg {0, 0.12}", db)
	}
	if got := tr.CriticalTier(); got != TierDB {
		t.Errorf("critical tier = %q, want db", got)
	}
}

func TestCriticalTierTieBreaksInPathOrder(t *testing.T) {
	tr := mkTrace("Browse", 0,
		Span{Tier: TierWeb, Wait: 0.05, Service: 0.05},
		Span{Tier: TierApp, Wait: 0.05, Service: 0.05},
		Span{Tier: TierDB, Wait: 0.05, Service: 0.05},
	)
	if got := tr.CriticalTier(); got != TierWeb {
		t.Errorf("tied critical tier = %q, want web (path order)", got)
	}
	if got := (&Trace{}).CriticalTier(); got != "" {
		t.Errorf("empty trace critical tier = %q, want empty", got)
	}
}

func TestSampleDeterministicAndUnbiased(t *testing.T) {
	c := NewCollector(42, 0.3)
	// Determinism: the same (seed, index) always answers the same.
	for i := uint64(0); i < 1000; i++ {
		if c.Sample(i) != c.Sample(i) {
			t.Fatalf("sampling decision for request %d is unstable", i)
		}
	}
	d := NewCollector(42, 0.3)
	for i := uint64(0); i < 1000; i++ {
		if c.Sample(i) != d.Sample(i) {
			t.Fatalf("two collectors with the same seed disagree at %d", i)
		}
	}
	// Rough unbiasedness at the configured rate.
	kept := 0
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if c.Sample(i) {
			kept++
		}
	}
	if frac := float64(kept) / n; math.Abs(frac-0.3) > 0.02 {
		t.Errorf("sampling fraction = %.3f, want ~0.30", frac)
	}
	// Edge rates.
	if NewCollector(1, 0).Sample(7) {
		t.Error("rate 0 sampled a request")
	}
	if !NewCollector(1, 1).Sample(7) {
		t.Error("rate 1 dropped a request")
	}
	// Different seeds give different decision streams.
	e := NewCollector(43, 0.3)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if c.Sample(i) == e.Sample(i) {
			same++
		}
	}
	if same == 1000 {
		t.Error("independent seeds produced identical decision streams")
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	if SeedFor(7) != SeedFor(7) {
		t.Error("SeedFor is not a pure function")
	}
	if SeedFor(7) == 7 {
		t.Error("SeedFor must not be the identity: the trace stream would alias the trial stream")
	}
	if SeedFor(7) == SeedFor(8) {
		t.Error("distinct trial seeds collided")
	}
}

func TestDecomposeRowsAndStatistics(t *testing.T) {
	var traces []*Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, mkTrace("Browse", 0,
			Span{Tier: TierWeb, Wait: 0.001, Service: 0.002},
			Span{Tier: TierApp, Wait: 0.010, Service: 0.020},
			Span{Tier: TierDB, Wait: 0.005, Service: 0.005},
		))
	}
	traces = append(traces, mkTrace("PutBid", 0,
		Span{Tier: TierWeb, Wait: 0.002, Service: 0.002},
		Span{Tier: TierApp, Wait: 0.020, Service: 0.020},
		Span{Tier: TierDB, Wait: 0.050, Service: 0.010},
	))
	rows := Decompose(traces)
	// 3 classes (all, Browse, PutBid) × 3 tiers.
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if rows[0].Interaction != AllClasses || rows[0].Tier != TierWeb {
		t.Errorf("first row = %+v, want all/web", rows[0])
	}
	find := func(class, tier string) DecompRow {
		for _, r := range rows {
			if r.Interaction == class && r.Tier == tier {
				return r
			}
		}
		t.Fatalf("no row for %s/%s", class, tier)
		return DecompRow{}
	}
	browseApp := find("Browse", TierApp)
	if browseApp.Count != 10 || math.Abs(browseApp.MeanWaitMs-10) > 1e-9 {
		t.Errorf("Browse/app row = %+v", browseApp)
	}
	allDB := find(AllClasses, TierDB)
	if allDB.Count != 11 {
		t.Errorf("all/db count = %d, want 11", allDB.Count)
	}
	wantMean := (10*5.0 + 50) / 11
	if math.Abs(allDB.MeanWaitMs-wantMean) > 1e-9 {
		t.Errorf("all/db mean wait = %g, want %g", allDB.MeanWaitMs, wantMean)
	}
	if Decompose(nil) != nil {
		t.Error("empty trace set should decompose to no rows")
	}
}

func TestAttributeVerdict(t *testing.T) {
	var traces []*Trace
	for i := 0; i < 8; i++ {
		traces = append(traces, mkTrace("Browse", 0,
			Span{Tier: TierWeb, Wait: 0, Service: 0.001},
			Span{Tier: TierApp, Wait: 0.080, Service: 0.010},
			Span{Tier: TierDB, Wait: 0.001, Service: 0.005},
		))
	}
	for i := 0; i < 2; i++ {
		traces = append(traces, mkTrace("Search", 0,
			Span{Tier: TierWeb, Wait: 0, Service: 0.001},
			Span{Tier: TierApp, Wait: 0, Service: 0.002},
			Span{Tier: TierDB, Wait: 0.001, Service: 0.050},
		))
	}
	v := Attribute(traces)
	if v.Tier != TierApp {
		t.Fatalf("verdict tier = %q, want app", v.Tier)
	}
	if v.Share != 0.8 || v.Traces != 10 {
		t.Errorf("share=%g traces=%d, want 0.8/10", v.Share, v.Traces)
	}
	if v.QueueShare < 0.8 {
		t.Errorf("queue share = %g, want wait-dominated (app spends 80ms queued vs 10ms served)", v.QueueShare)
	}
	if !strings.Contains(v.Reason, "app") {
		t.Errorf("reason %q does not name the tier", v.Reason)
	}
	empty := Attribute(nil)
	if empty.Tier != "none" || empty.Traces != 0 {
		t.Errorf("empty verdict = %+v", empty)
	}
}

func TestExemplarsSlowestFirstDeterministic(t *testing.T) {
	mk := func(rt, issued float64, sess int) *Trace {
		tr := mkTrace("X", rt, Span{Tier: TierApp, Wait: rt / 2, Service: rt / 2})
		tr.Issued, tr.Session = issued, sess
		return tr
	}
	traces := []*Trace{
		mk(0.1, 1, 1), mk(0.5, 2, 2), mk(0.3, 3, 3),
		mk(0.5, 1, 4), // ties with sess 2 on RT; earlier issue wins
	}
	ex := Exemplars(traces, 3)
	if len(ex) != 3 {
		t.Fatalf("exemplars = %d, want 3", len(ex))
	}
	if ex[0].Session != 4 || ex[1].Session != 2 || ex[2].Session != 3 {
		t.Errorf("exemplar order = %d,%d,%d, want 4,2,3", ex[0].Session, ex[1].Session, ex[2].Session)
	}
	if ex[0].RTms != 500 {
		t.Errorf("exemplar RT = %g ms, want 500", ex[0].RTms)
	}
	if ex[0].CriticalTier != TierApp {
		t.Errorf("exemplar critical tier = %q", ex[0].CriticalTier)
	}
	if got := Exemplars(traces, 100); len(got) != 4 {
		t.Errorf("k beyond len kept %d, want all 4", len(got))
	}
	if Exemplars(traces, 0) != nil || Exemplars(nil, 5) != nil {
		t.Error("k=0 or empty traces should capture nothing")
	}
}

func TestPercentileEstimator(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %g", got)
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	// Quartile interpolates between order statistics.
	if got := percentile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %g", got)
	}
	if got := percentile(xs, 0.95); math.Abs(got-4.8) > 1e-9 {
		t.Errorf("p95 = %g, want 4.8", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

func TestBuildReportAndJSONRoundTrip(t *testing.T) {
	c := NewCollector(9, 1)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		tr := c.Start("Browse", i, float64(i))
		tr.AddSpan(TierWeb, "WEB1", float64(i), 0.001*rng.Float64(), 0.002, true)
		tr.AddSpan(TierApp, "JONAS1", float64(i)+0.01, 0.05*rng.Float64(), 0.01, true)
		tr.AddSpan(TierDB, "MYSQL1", float64(i)+0.05, 0.002, 0.005, true)
		c.Commit(tr, 0.07, "ok")
	}
	rep := BuildReport(c, 5)
	if rep.Sampled != 50 || rep.Rate != 1 {
		t.Fatalf("report sampled=%d rate=%g", rep.Sampled, rep.Rate)
	}
	if len(rep.Exemplars) != 5 {
		t.Fatalf("exemplars = %d", len(rep.Exemplars))
	}
	if rep.Verdict.Tier != TierApp {
		t.Errorf("verdict tier = %q, want app", rep.Verdict.Tier)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sampled != rep.Sampled || back.Verdict.Tier != rep.Verdict.Tier ||
		len(back.Rows) != len(rep.Rows) || len(back.Exemplars) != len(rep.Exemplars) {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

func TestChromeJSONStructure(t *testing.T) {
	groups := []ExemplarGroup{{
		Name: "rubis/1-2-1/u=100/w=15%",
		Exemplars: []Exemplar{{
			Interaction: "PutBid", IssuedSec: 1.5, RTms: 120, Outcome: "ok",
			CriticalTier: TierDB,
			Spans: []SpanRecord{
				{Tier: TierWeb, Station: "WEB1", StartSec: 1.5, WaitMs: 1, ServiceMs: 2},
				{Tier: TierDB, Station: "MYSQL1", StartSec: 1.55, WaitMs: 0, ServiceMs: 80},
			},
		}},
	}}
	data, err := ChromeJSON(groups)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 2 metadata + 1 root + 1 web wait + 1 web service + 1 db service
	// (zero-wait spans emit no wait slice).
	if len(f.TraceEvents) != 6 {
		t.Fatalf("events = %d, want 6: %s", len(f.TraceEvents), data)
	}
	var phases []string
	for _, ev := range f.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	sort.Strings(phases)
	if phases[0] != "M" || phases[len(phases)-1] != "X" {
		t.Errorf("phases = %v", phases)
	}
	// Determinism: same input, same bytes.
	again, err := ChromeJSON(groups)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("ChromeJSON is not deterministic")
	}
}
