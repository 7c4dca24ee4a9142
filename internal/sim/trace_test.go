package sim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"elba/internal/trace"
)

// mixModel alternates a read and a broadcast-write interaction so traced
// runs exercise both the sequential path and the replica fan-out.
type mixModel struct{ think float64 }

type mixSession struct{ n int }

func (s *mixSession) Next(*rand.Rand) Interaction {
	s.n++
	if s.n%2 == 0 {
		return Interaction{Name: "write", WebDemand: 0.001, AppDemand: 0.004, DBDemand: 0.006, Write: true}
	}
	return Interaction{Name: "read", WebDemand: 0.001, AppDemand: 0.003, DBDemand: 0.004}
}

func (m mixModel) Name() string                  { return "mix" }
func (m mixModel) NewSession(*rand.Rand) Session { return &mixSession{} }
func (m mixModel) ThinkTime() float64            { return m.think }
func (m mixModel) Interactions() []Interaction {
	return []Interaction{
		{Name: "read", WebDemand: 0.001, AppDemand: 0.003, DBDemand: 0.004},
		{Name: "write", WebDemand: 0.001, AppDemand: 0.004, DBDemand: 0.006, Write: true},
	}
}

// runTraced runs a fully-sampled traced trial and returns its collector.
func runTraced(t *testing.T, seed uint64, webN, appN, dbN int) *trace.Collector {
	t.Helper()
	k := NewKernel(seed)
	nt := buildApp(k, webN, appN, dbN, 0)
	d := NewDriver(k, nt, mixModel{think: 0.05}, DriverConfig{Users: 8, RampUp: 0.2}, seed)
	tc := trace.NewCollector(trace.SeedFor(seed), 1)
	d.SetTracer(tc)
	d.Start()
	k.Run(2)
	d.BeginMeasurement()
	k.Run(10)
	d.EndMeasurement()
	k.Run(11)
	if tc.Len() == 0 {
		t.Fatalf("no traces committed")
	}
	return tc
}

func TestTracedSpansSumToRT(t *testing.T) {
	tc := runTraced(t, 11, 1, 2, 3)
	reads, writes := 0, 0
	for _, tr := range tc.Traces() {
		web, app, db := tr.TierContributions()
		sum := web.Total() + app.Total() + db.Total()
		if math.Abs(sum-tr.RT) > 1e-9 {
			t.Fatalf("%s trace: spans sum to %.9f, RT %.9f", tr.Interaction, sum, tr.RT)
		}
		if tr.Write {
			writes++
			// Broadcast write: one web span, one app span, one db span per
			// replica.
			if len(tr.Spans) != 2+3 {
				t.Fatalf("write trace has %d spans, want 5", len(tr.Spans))
			}
		} else {
			reads++
			if len(tr.Spans) != 3 {
				t.Fatalf("read trace has %d spans, want 3", len(tr.Spans))
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("want both classes traced: reads=%d writes=%d", reads, writes)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := runTraced(t, 23, 1, 2, 2)
	b := runTraced(t, 23, 1, 2, 2)
	if a.Len() != b.Len() {
		t.Fatalf("trace counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Traces() {
		ta, tb := a.Traces()[i], b.Traces()[i]
		if ta.Interaction != tb.Interaction || ta.Session != tb.Session ||
			ta.Issued != tb.Issued || ta.RT != tb.RT || ta.Outcome != tb.Outcome {
			t.Fatalf("trace %d differs: %+v vs %+v", i, ta, tb)
		}
		if len(ta.Spans) != len(tb.Spans) {
			t.Fatalf("trace %d span counts differ", i)
		}
		for j := range ta.Spans {
			if ta.Spans[j] != tb.Spans[j] {
				t.Fatalf("trace %d span %d differs: %+v vs %+v", i, j, ta.Spans[j], tb.Spans[j])
			}
		}
	}
}

func TestTracingNeverPerturbsRequests(t *testing.T) {
	// A traced run must issue and complete the identical request sequence
	// as an untraced run: sampling draws from its own hashed stream, never
	// from the driver's or kernel's.
	run := func(traced bool) measured {
		k := NewKernel(31)
		nt := buildApp(k, 1, 2, 2, 0)
		d := NewDriver(k, nt, mixModel{think: 0.05}, DriverConfig{Users: 6, RampUp: 0.2}, 31)
		tap := &completionTap{k: k}
		d.SetRTObserver(tap)
		if traced {
			d.SetTracer(trace.NewCollector(trace.SeedFor(31), 0.5))
		}
		d.Start()
		k.Run(1)
		d.BeginMeasurement()
		k.Run(6)
		d.EndMeasurement()
		return tap.measured(d)
	}
	plain, traced := run(false), run(true)
	if len(plain.done) == 0 {
		t.Fatalf("untraced run measured no requests")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the run: %d successes, %d issued, %d errors untraced; %d, %d, %d traced",
			len(plain.done), plain.issued, plain.errors, len(traced.done), traced.issued, traced.errors)
	}
}

func TestTracingDisabledAddsNoAllocations(t *testing.T) {
	k := NewKernel(7)
	nt := buildApp(k, 1, 2, 2, 0)
	d := NewDriver(k, nt, mixModel{think: 0.02}, DriverConfig{Users: 8, RampUp: 0.2}, 7)
	d.Start()
	// Warm up so call/writeCall pools and the event heap reach steady state.
	k.Run(5)
	allocs := testing.AllocsPerRun(50, func() {
		k.Run(k.Now() + 0.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state loop allocates %.1f objects/run with tracing disabled, want 0", allocs)
	}
}
