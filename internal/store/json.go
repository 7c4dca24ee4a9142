package store

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// jsonWriter appends the bytes json.MarshalIndent(results, "", "  ")
// would produce, field by field in declaration order, with no reflection
// and no second pass to indent. It follows encoding/json's rules:
// omitempty drops a zero number (so -0 too), an empty string, map or
// slice and a nil pointer; map keys are sorted as raw strings; floats use
// ES6 number formatting; strings that need escaping go through
// json.Marshal, so HTML escaping, invalid UTF-8, U+2028/9 and control
// bytes come out as the building toolchain's encoding/json spells them.
// The sketch (its own MarshalJSON) and the trace report (a tree of
// structs written rarely) are marshalled by encoding/json and indented
// in place. Decoding, the cache and the result log stay on
// encoding/json; TestMarshalJSONMatchesEncodingJSON and
// TestAppenderCoversEveryField pin this writer to it.
type jsonWriter struct {
	b     []byte
	depth int
	first bool     // no member written yet in the open object or array
	keys  []string // reused to sort each map's keys
	err   error
}

// appendResults appends the indented JSON array of rs to b.
func appendResults(b []byte, rs []*Result) ([]byte, error) {
	w := jsonWriter{b: b}
	w.open('[')
	for _, r := range rs {
		w.elem()
		w.result(r)
	}
	w.close(']')
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost object or array: an empty one stays on its
// opening line ("{}", "[]"), as in encoding/json.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// newlines is a newline and the indentation of the deepest line the
// writer starts itself: a scale event's fields, at depth 4.
const newlines = "\n        "

func (w *jsonWriter) newline() { w.b = append(w.b, newlines[:1+2*w.depth]...) }

// elem starts the next array element.
func (w *jsonWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// field starts the next object member. name must need no escaping.
func (w *jsonWriter) field(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) result(r *Result) {
	if r == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('{')
	w.field("key")
	w.open('{')
	w.field("experiment")
	w.str(r.Key.Experiment)
	w.field("topology")
	w.str(r.Key.Topology)
	w.field("users")
	w.int(int64(r.Key.Users))
	w.field("write_ratio_pct")
	w.float(r.Key.WriteRatioPct)
	w.close('}')
	w.field("completed")
	w.b = strconv.AppendBool(w.b, r.Completed)
	w.optStr("fail_reason", r.FailReason)
	w.optStr("engine", r.Engine)
	w.field("avg_rt_ms")
	w.float(r.AvgRTms)
	w.field("p50_ms")
	w.float(r.P50ms)
	w.field("p90_ms")
	w.float(r.P90ms)
	w.field("p99_ms")
	w.float(r.P99ms)
	w.field("max_rt_ms")
	w.float(r.MaxRTms)
	w.field("throughput_rps")
	w.float(r.Throughput)
	w.field("requests")
	w.int(r.Requests)
	w.field("errors")
	w.int(r.Errors)
	w.optMap("tier_cpu", r.TierCPU)
	w.optMap("host_cpu", r.HostCPU)
	w.optMap("tier_disk", r.TierDisk)
	w.optMap("tier_net", r.TierNet)
	w.optMap("host_disk", r.HostDisk)
	w.optMap("host_net", r.HostNet)
	w.field("collected_bytes")
	w.int(int64(r.CollectedBytes))
	w.field("run_seconds")
	w.float(r.RunSeconds)
	w.optMap("per_interaction", r.PerInteraction)
	w.optStr("fault_profile", r.FaultProfile)
	if len(r.FaultEvents) > 0 {
		w.field("fault_events")
		w.open('[')
		for _, s := range r.FaultEvents {
			w.elem()
			w.str(s)
		}
		w.close(']')
	}
	w.optInt("injected_errors", r.InjectedErrors)
	w.optStr("slo_assert", r.SLOAssert)
	w.optInt("slo_windows", int64(r.SLOWindows))
	w.optInt("slo_violations", int64(r.SLOViolations))
	if len(r.SLOViolatedAt) > 0 {
		w.field("slo_violated_at")
		w.open('[')
		for _, f := range r.SLOViolatedAt {
			w.elem()
			w.float(f)
		}
		w.close(']')
	}
	if len(r.ScaleEvents) > 0 {
		w.field("scale_events")
		w.open('[')
		for _, e := range r.ScaleEvents {
			w.elem()
			w.open('{')
			w.field("t_sec")
			w.float(e.TSec)
			w.field("tier")
			w.str(e.Tier)
			w.field("from")
			w.int(int64(e.From))
			w.field("to")
			w.int(int64(e.To))
			w.close('}')
		}
		w.close(']')
	}
	w.optInt("deploy_retries", int64(r.DeployRetries))
	w.optFloat("deploy_seconds", r.DeploySeconds)
	w.optInt("attempts", int64(r.Attempts))
	if r.RTSketch != nil {
		w.field("rt_sketch")
		w.indented(r.RTSketch)
	}
	if r.Trace != nil {
		w.field("trace")
		w.indented(r.Trace)
	}
	w.optInt("replicas", int64(r.Replicas))
	w.optFloat("avg_rt_ci95_ms", r.AvgRTCI95ms)
	w.optFloat("throughput_ci95", r.ThroughputCI95)
	w.close('}')
}

func (w *jsonWriter) optStr(name, s string) {
	if s != "" {
		w.field(name)
		w.str(s)
	}
}

func (w *jsonWriter) optInt(name string, n int64) {
	if n != 0 {
		w.field(name)
		w.int(n)
	}
}

func (w *jsonWriter) optFloat(name string, f float64) {
	if f != 0 {
		w.field(name)
		w.float(f)
	}
}

func (w *jsonWriter) optMap(name string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	w.field(name)
	keys := w.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.elem()
		w.str(k)
		w.b = append(w.b, ": "...)
		w.float(m[k])
	}
	w.close('}')
	w.keys = keys
}

func (w *jsonWriter) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

// float formats f as encoding/json does (ES6 number formatting): 'f'
// unless |f| is below 1e-6 or at least 1e21, with "e-09" trimmed to
// "e-9". NaN and ±Inf fail with encoding/json's own error.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			_, w.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// str quotes s. Printable ASCII other than the characters encoding/json
// escapes is copied as is; anything else is left to json.Marshal.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// indented appends v as encoding/json marshals it, indented to the
// current depth.
func (w *jsonWriter) indented(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	buf := bytes.NewBuffer(w.b)
	json.Indent(buf, raw, newlines[1:1+2*w.depth], "  ") // raw is valid JSON
	w.b = buf.Bytes()
}
