package campaign

import (
	"cmp"
	"fmt"
	"slices"
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
		loads := distinct(results, func(r store.Result) int { return r.Key.Users })
		for _, wr := range distinct(results, func(r store.Result) float64 { return r.Key.WriteRatioPct }) {
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

// distinct returns the sorted distinct values of f over rs.
func distinct[T cmp.Ordered](rs []store.Result, f func(store.Result) T) []T {
	var out []T
	for _, r := range rs {
		out = append(out, f(r))
	}
	slices.Sort(out)
	return slices.Compact(out)
}
