package campaign

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"elba/internal/report"
	"elba/internal/store"
)

// Report renders the campaign's tables once it is done: the paper's
// throughput grid per (experiment, write ratio), plus the conditional
// tables of report.PostRunTables for every experiment whose results carry
// their observations — the list the elba CLI renders after a run.
func (c *Campaign) Report() (string, error) {
	st, err := c.Results()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, name := range c.names {
		results := st.Filter(func(r store.Result) bool {
			return r.Key.Experiment == name
		})
		if len(results) == 0 {
			continue
		}
		topologies := st.Topologies(name)
		loads := distinctInts(results, func(r store.Result) int { return r.Key.Users })
		for _, wr := range distinctRatios(results) {
			if b.Len() > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "experiment %q, write ratio %g%%\n", name, wr)
			b.WriteString(report.Table7Throughput(st, name, wr, topologies, loads))
		}
		for _, t := range report.PostRunTables {
			if slices.ContainsFunc(results, t.Has) {
				b.WriteString("\n")
				b.WriteString(t.Render(st, name))
			}
		}
	}
	return b.String(), nil
}

func distinctInts(rs []store.Result, f func(store.Result) int) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rs {
		if v := f(r); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func distinctRatios(rs []store.Result) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, r := range rs {
		if v := r.Key.WriteRatioPct; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
