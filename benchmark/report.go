package main

import (
	"fmt"
	"sort"
	"strings"

	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

// renderReport renders a finished campaign's tables exactly as
// campaign.(*Campaign).Report does. The traced path builds no Campaign,
// so it renders here; a -trace 1 run checks the two renderings agree
// byte for byte on every digest job.
func renderReport(st *store.Store, doc *spec.Document) string {
	var b strings.Builder
	for _, e := range doc.Experiments {
		name := e.Name
		results := st.Filter(func(r store.Result) bool { return r.Key.Experiment == name })
		if len(results) == 0 {
			continue
		}
		topologies := st.Topologies(name)
		loads := distinct(results, func(r store.Result) float64 { return float64(r.Key.Users) })
		users := make([]int, len(loads))
		for i, u := range loads {
			users[i] = int(u)
		}
		for _, wr := range distinct(results, func(r store.Result) float64 { return r.Key.WriteRatioPct }) {
			if b.Len() > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "experiment %q, write ratio %g%%\n", name, wr)
			b.WriteString(report.Table7Throughput(st, name, wr, topologies, users))
		}
		for _, t := range []struct {
			has    func(store.Result) bool
			render func(*store.Store, string) string
		}{
			{func(r store.Result) bool { return r.FaultProfile != "" }, report.TableAvailability},
			{func(r store.Result) bool { return r.Engine != "" }, report.TableEngineSummary},
			{func(r store.Result) bool { return r.SLOAssert != "" }, report.TableSLO},
			{func(r store.Result) bool { return len(r.ScaleEvents) > 0 }, report.TableScaling},
		} {
			for _, r := range results {
				if t.has(r) {
					b.WriteString("\n")
					b.WriteString(t.render(st, name))
					break
				}
			}
		}
	}
	return b.String()
}

// distinct returns the sorted distinct values of f over rs.
func distinct(rs []store.Result, f func(store.Result) float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, r := range rs {
		if v := f(r); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
