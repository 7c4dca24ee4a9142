// Package benchreg parses `go test -bench -benchmem` output into a
// comparable JSON report. It is the substrate of cmd/benchreg, the
// repo's benchmark regression harness.
package benchreg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured costs.
type Benchmark struct {
	Name     string  `json:"name"`
	Runs     int64   `json:"runs"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	BytesOp  float64 `json:"bytes_per_op"`
	// Extra holds custom b.ReportMetric values (unit -> value).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is a set of benchmarks keyed for comparison.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output. Lines that are not benchmark
// results (package headers, PASS, ok) are ignored. The trailing -N
// GOMAXPROCS suffix is stripped from names so reports compare across
// machines.
//
// A benchmark run with -count N prints N lines, which become one row:
// the median of their ns/op, runs and custom metrics, and the minimum
// of their allocs/op and B/op. A collection that empties a sync.Pool
// mid-run inflates one line's allocations; a change to the code raises
// them in every line, so the minimum drops the first and keeps the
// second.
func Parse(r io.Reader) (*Report, error) {
	lines := map[string][]Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a header like "BenchmarkFoo ... goroutines"
		}
		b := Benchmark{Name: trimProcSuffix(fields[0]), Runs: runs}
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchreg: bad value %q on line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "allocs/op":
				b.AllocsOp = v
			case "B/op":
				b.BytesOp = v
			case "MB/s":
				// throughput depends on the machine; skip
			default:
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[unit] = v
			}
		}
		lines[b.Name] = append(lines[b.Name], b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, runs := range lines {
		rep.Benchmarks = append(rep.Benchmarks, merge(runs))
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// merge folds one benchmark's lines into its row (see Parse).
func merge(runs []Benchmark) Benchmark {
	b := runs[0]
	var ns, n []float64
	extra := map[string][]float64{}
	for _, r := range runs {
		ns = append(ns, r.NsPerOp)
		n = append(n, float64(r.Runs))
		b.AllocsOp = min(b.AllocsOp, r.AllocsOp)
		b.BytesOp = min(b.BytesOp, r.BytesOp)
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	b.NsPerOp, b.Runs = median(ns), int64(median(n))
	b.Extra = nil
	for unit, vs := range extra {
		if b.Extra == nil {
			b.Extra = map[string]float64{}
		}
		b.Extra[unit] = median(vs)
	}
	return b
}

// median returns the median of vs, which it sorts; of an even number of
// values, the mean of the middle two.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// trimProcSuffix drops the "-8" GOMAXPROCS suffix go test appends.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// MarshalIndent renders the report as stable, human-diffable JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Load reads a report previously written by cmd/benchreg.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchreg: %s: %w", path, err)
	}
	return &r, nil
}

// Delta is one benchmark's change versus a baseline.
type Delta struct {
	Name        string
	Cur         Benchmark
	InBaseline  bool
	NsRatio     float64
	AllocsDelta float64
}

// Compare matches current benchmarks to the baseline by name. New
// benchmarks appear with InBaseline=false and never regress.
func Compare(base, cur *Report) []Delta {
	byName := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	var out []Delta
	for _, c := range cur.Benchmarks {
		d := Delta{Name: c.Name, Cur: c}
		if b, ok := byName[c.Name]; ok {
			d.InBaseline = true
			if b.NsPerOp > 0 {
				d.NsRatio = c.NsPerOp / b.NsPerOp
			}
			d.AllocsDelta = c.AllocsOp - b.AllocsOp
		}
		out = append(out, d)
	}
	return out
}

// Regressed reports whether the delta violates the given thresholds.
func (d Delta) Regressed(maxRatio float64, strictAllocs bool) bool {
	if !d.InBaseline {
		return false
	}
	if d.NsRatio > maxRatio {
		return true
	}
	return strictAllocs && d.AllocsDelta > 0
}

// String renders one comparison row.
func (d Delta) String() string {
	if !d.InBaseline {
		return fmt.Sprintf("%-40s %12.1f ns/op %8.0f allocs/op  (new)",
			d.Name, d.Cur.NsPerOp, d.Cur.AllocsOp)
	}
	return fmt.Sprintf("%-40s %12.1f ns/op (%.2fx) %8.0f allocs/op (%+.0f)",
		d.Name, d.Cur.NsPerOp, d.NsRatio, d.Cur.AllocsOp, d.AllocsDelta)
}
