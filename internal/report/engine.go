package report

import (
	"fmt"
	"sort"

	"elba/internal/store"
)

// engineLabel names the trial engine that produced a result. Results
// predating the scaling clause carry no tag and are exact-DES by
// construction.
func engineLabel(r store.Result) string {
	if r.Engine == "" {
		return "des"
	}
	return r.Engine
}

// experimentResults returns an experiment's results in canonical key
// order (topology scale-out, then users, then write ratio).
func experimentResults(st *store.Store, experiment string) []store.Result {
	rs := st.Filter(func(r store.Result) bool { return r.Key.Experiment == experiment })
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i].Key, rs[j].Key
		if a.Topology != b.Topology {
			return a.Topology < b.Topology
		}
		if a.Users != b.Users {
			return a.Users < b.Users
		}
		return a.WriteRatioPct < b.WriteRatioPct
	})
	return rs
}

// TableEngineSummary lists an experiment's trials with their engine
// provenance: which points came from the exact per-session DES and which
// from the aggregated fluid approximation above the scaling threshold.
func TableEngineSummary(st *store.Store, experiment string) string {
	t := NewTable(fmt.Sprintf("Engine provenance: %s", experiment),
		"Config (w-a-d)", "Users", "Write%", "Engine", "X (req/s)", "p50 (ms)")
	for _, r := range experimentResults(st, experiment) {
		if !r.Completed {
			t.AddRow(r.Key.Topology, fmt.Sprint(r.Key.Users),
				fmt.Sprintf("%g", r.Key.WriteRatioPct), engineLabel(r), "-", "-")
			continue
		}
		t.AddRow(r.Key.Topology, fmt.Sprint(r.Key.Users),
			fmt.Sprintf("%g", r.Key.WriteRatioPct), engineLabel(r),
			fmt.Sprintf("%.1f", r.Throughput), fmt.Sprintf("%.1f", r.P50ms))
	}
	return t.String()
}
