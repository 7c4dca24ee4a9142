package report

import (
	"fmt"

	"elba/internal/store"
)

// TableSLO renders the per-trial verdicts of the spec's SLO assert
// expression: how many observation windows were checked, how many
// violated, and when the first violation opened — the windowed view the
// paper's availability analysis reads, generalized from fixed thresholds
// to arbitrary predicates.
func TableSLO(st *store.Store, experiment string) string {
	rs := configResults(st, experiment, func(r store.Result) bool { return r.SLOAssert != "" })
	assert := ""
	if len(rs) > 0 {
		assert = rs[0].SLOAssert
	}
	t := NewTable(fmt.Sprintf("SLO verdicts — %s: assert %s", experiment, assert),
		"Config (w-a-d)", "Users", "Writes", "Engine", "Windows", "Violations",
		"First violation", "Verdict")
	for _, r := range rs {
		first, verdict := "-", "PASS"
		if r.SLOViolations > 0 {
			first = fmt.Sprintf("%.0fs", r.SLOViolatedAt[0])
			verdict = "FAIL"
		}
		t.AddRow(r.Key.Topology, fmt.Sprint(r.Key.Users),
			fmt.Sprintf("%g%%", r.Key.WriteRatioPct), engineLabel(r),
			fmt.Sprint(r.SLOWindows), fmt.Sprint(r.SLOViolations),
			first, verdict)
	}
	return t.String()
}
