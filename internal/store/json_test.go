package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"elba/internal/metrics"
	"elba/internal/trace"
)

// jsonStrings covers both paths of jsonWriter.str: plain printable ASCII,
// and everything encoding/json escapes or rewrites (HTML characters,
// quotes, backslashes, \b and \f, other control bytes, DEL, invalid
// UTF-8, U+2028/9 and other non-ASCII text).
var jsonStrings = []string{
	"", "exp", "1-2-1", "rubis-scaleout", "a,b <x>", "x<y", "a>b", "x&y", `say "hi"`, `back\slash`,
	"\b\f", "\x00\x01\x1f", "tab\tnl\n\r", "del\x7f", "\xff\xfe", "half\xe2\x80",
	"sep\u2028para\u2029", "héllo wörld", "日本", "JONAS1",
}

// jsonFloats covers both float formats, the switch points between them,
// the "e-09" trim, -0 and values with full mantissas.
var jsonFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 15, 0.1, 123.456, 1e-6, 9.99e-7, 1e-7, -1e-7,
	1e-9, 5e-324, 1e20, 1e21, -1e21, 2.5e22, math.MaxFloat64, 69.87935327113523,
}

func randString(rng *rand.Rand) string { return jsonStrings[rng.Intn(len(jsonStrings))] }

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return jsonFloats[rng.Intn(len(jsonFloats))]
	case 1:
		return rng.NormFloat64() * 1e3
	case 2:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	default:
		return float64(rng.Intn(2000))
	}
}

func randMap(rng *rand.Rand) map[string]float64 {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return map[string]float64{}
	}
	m := map[string]float64{}
	for i := rng.Intn(6); i >= 0; i-- {
		m[randString(rng)] = randFloat(rng)
	}
	return m
}

func randInt(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return 0
	}
	return rng.Intn(2001) - 1000
}

func randDigest(rng *rand.Rand) *metrics.TDigest {
	d := metrics.NewTDigest(20 + float64(rng.Intn(200)))
	for i := rng.Intn(300); i > 0; i-- {
		d.Observe(rng.ExpFloat64() * 100)
	}
	return d
}

func randReport(rng *rand.Rand) *trace.Report {
	r := &trace.Report{
		Rate:    randFloat(rng),
		Sampled: randInt(rng),
		Verdict: trace.Verdict{Tier: randString(rng), Share: randFloat(rng), QueueShare: randFloat(rng),
			Traces: randInt(rng), Reason: randString(rng)},
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.Rows = append(r.Rows, trace.DecompRow{Interaction: randString(rng), Tier: randString(rng),
			Count: randInt(rng), MeanWaitMs: randFloat(rng), P95WaitMs: randFloat(rng)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		ex := trace.Exemplar{Interaction: randString(rng), RTms: randFloat(rng), Outcome: randString(rng)}
		for j := rng.Intn(3); j > 0; j-- {
			ex.Spans = append(ex.Spans, trace.SpanRecord{Tier: randString(rng), WaitMs: randFloat(rng), Err: rng.Intn(2) == 0})
		}
		r.Exemplars = append(r.Exemplars, ex)
	}
	return r
}

// randResult draws a result whose every field is zero or not at random.
func randResult(rng *rand.Rand) Result {
	maybe := func() bool { return rng.Intn(2) == 0 }
	r := Result{
		Key: Key{Experiment: randString(rng), Topology: randString(rng), Users: randInt(rng),
			WriteRatioPct: randFloat(rng)},
		Completed: maybe(), FailReason: randString(rng), Engine: randString(rng),
		AvgRTms: randFloat(rng), P50ms: randFloat(rng), P90ms: randFloat(rng), P99ms: randFloat(rng),
		MaxRTms: randFloat(rng), Throughput: randFloat(rng),
		Requests: int64(randInt(rng)), Errors: int64(randInt(rng)),
		TierCPU: randMap(rng), HostCPU: randMap(rng), TierDisk: randMap(rng), TierNet: randMap(rng),
		HostDisk: randMap(rng), HostNet: randMap(rng),
		CollectedBytes: randInt(rng), RunSeconds: randFloat(rng), PerInteraction: randMap(rng),
		FaultProfile: randString(rng), InjectedErrors: int64(randInt(rng)), SLOAssert: randString(rng),
		SLOWindows: randInt(rng), SLOViolations: randInt(rng),
		DeployRetries: randInt(rng), DeploySeconds: randFloat(rng), Attempts: randInt(rng),
		Replicas: randInt(rng), AvgRTCI95ms: randFloat(rng), ThroughputCI95: randFloat(rng),
	}
	if maybe() {
		r.FaultEvents = []string{}
		for i := rng.Intn(3); i > 0; i-- {
			r.FaultEvents = append(r.FaultEvents, randString(rng))
		}
	}
	if maybe() {
		r.SLOViolatedAt = []float64{}
		for i := rng.Intn(3); i > 0; i-- {
			r.SLOViolatedAt = append(r.SLOViolatedAt, randFloat(rng))
		}
	}
	if maybe() {
		r.ScaleEvents = []ScaleEvent{}
		for i := rng.Intn(3); i > 0; i-- {
			r.ScaleEvents = append(r.ScaleEvents, ScaleEvent{TSec: randFloat(rng), Tier: randString(rng),
				From: randInt(rng), To: randInt(rng)})
		}
	}
	if rng.Intn(4) == 0 {
		r.RTSketch = randDigest(rng)
	}
	if rng.Intn(4) == 0 {
		r.Trace = randReport(rng)
	}
	return r
}

// checkMatchesEncodingJSON requires appendResults to write exactly what
// json.MarshalIndent writes for rs, or to fail exactly as it does.
func checkMatchesEncodingJSON(t *testing.T, rs []*Result) {
	t.Helper()
	got, gotErr := appendResults(nil, rs)
	want, wantErr := json.MarshalIndent(rs, "", "  ")
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("error = %v, encoding/json's = %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes differ from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// TestMarshalJSONMatchesEncodingJSON pins Store.MarshalJSON to
// json.MarshalIndent over random stores, the empty one included.
func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	empty, err := New().MarshalJSON()
	if err != nil || string(empty) != "[]" {
		t.Fatalf("empty store = %q, %v; want []", empty, err)
	}
	rng := rand.New(rand.NewSource(1))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		s := New()
		for j := rng.Intn(4); j > 0; j-- {
			s.Put(randResult(rng))
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(s.sortedResults(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("store %d: bytes differ from encoding/json\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestMarshalJSONRejectsNonFinite requires NaN and ±Inf to fail with
// encoding/json's error wherever they sit, as they did under it.
func TestMarshalJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*Result){
			"key":       func(r *Result) { r.Key.WriteRatioPct = f },
			"field":     func(r *Result) { r.AvgRTms = f },
			"omitempty": func(r *Result) { r.ThroughputCI95 = f },
			"map":       func(r *Result) { r.TierCPU = map[string]float64{"app": f} },
			"slice":     func(r *Result) { r.SLOViolatedAt = []float64{1, f} },
			"event":     func(r *Result) { r.ScaleEvents = []ScaleEvent{{TSec: f}} },
			"trace":     func(r *Result) { r.Trace = &trace.Report{Rate: f} },
		} {
			r := mkResult("1-1-1", 100, 15, 10, true)
			set(&r)
			s := New()
			s.Put(r)
			if data, err := s.MarshalJSON(); err == nil {
				t.Fatalf("%s = %g marshalled: %s", name, f, data)
			}
			checkMatchesEncodingJSON(t, []*Result{&r})
		}
	}
}

// fillNonZero sets every field reachable from v, recursively, to a
// non-zero value: a map and a slice get entries, a pointer a filled
// target. A kind it does not know fails the test, so a new field type
// cannot slip past TestAppenderCoversEveryField unfilled.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	if v.Type() == reflect.TypeOf((*metrics.TDigest)(nil)) {
		d := metrics.NewTDigest(100)
		for i := 1; i <= 50; i++ {
			d.Observe(float64(i) * 1.25)
		}
		v.Set(reflect.ValueOf(d))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), path)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"b" + path, "a" + path} {
			e := reflect.New(v.Type().Elem()).Elem()
			fillNonZero(t, e, path+"[]")
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillNonZero(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.String:
		v.SetString("v" + path)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(len(path)))
	case reflect.Uint64:
		v.SetUint(uint64(len(path)))
	case reflect.Float64:
		v.SetFloat(float64(len(path)) + 0.25)
	default:
		t.Fatalf("%s: cannot fill a %s", path, v.Type())
	}
}

// TestAppenderCoversEveryField sets every field of a Result to a
// non-zero value, then zeroes each top-level field in turn, and compares
// each with encoding/json. A field added to Result that appendResults
// does not write fails here.
func TestAppenderCoversEveryField(t *testing.T) {
	var full Result
	fillNonZero(t, reflect.ValueOf(&full).Elem(), "")
	rv := reflect.ValueOf(full)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("field %s left zero", rv.Type().Field(i).Name)
		}
	}
	checkMatchesEncodingJSON(t, []*Result{&full})
	for i := 0; i < rv.NumField(); i++ {
		r := full
		f := reflect.ValueOf(&r).Elem().Field(i)
		f.Set(reflect.Zero(f.Type()))
		checkMatchesEncodingJSON(t, []*Result{&r, &full, nil})
	}
}

// FuzzStoreJSON feeds fuzzed strings and float bits into every kind of
// place a Result holds them and requires the bytes, or the error, of
// json.MarshalIndent.
func FuzzStoreJSON(f *testing.F) {
	f.Add("rubis", "1-2-1", math.Float64bits(69.87935327113523), math.Float64bits(1e-7))
	f.Add("a,b <x>", "\b\f\x01", math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e21))
	f.Add("\xff ", `"\`, math.Float64bits(math.NaN()), math.Float64bits(5e-324))
	f.Fuzz(func(t *testing.T, s1, s2 string, b1, b2 uint64) {
		f1, f2 := math.Float64frombits(b1), math.Float64frombits(b2)
		r := Result{
			Key:        Key{Experiment: s1, Topology: s2, Users: int(b1 % 4096), WriteRatioPct: f1},
			FailReason: s2, AvgRTms: f1, P99ms: f2, DeploySeconds: f2,
			TierCPU:       map[string]float64{s1: f1, s2: f2},
			FaultEvents:   []string{s1, s2},
			SLOViolatedAt: []float64{f2, f1},
			ScaleEvents:   []ScaleEvent{{TSec: f1, Tier: s2, From: 1, To: 2}},
			Trace: &trace.Report{Rate: f2, Verdict: trace.Verdict{Tier: s1, Reason: s2},
				Exemplars: []trace.Exemplar{{Interaction: s2, RTms: f1}}},
		}
		checkMatchesEncodingJSON(t, []*Result{&r})
	})
}
