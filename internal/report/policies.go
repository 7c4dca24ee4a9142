package report

import (
	"fmt"

	"elba/internal/store"
)

// TableScaling renders the autoscaling timeline: every policy firing
// recorded during the experiment's trials, one row per scale event in
// firing order — the paper's §V.A add-a-server decision log, taken
// mid-run by the spec's policies clause instead of between sweeps by the
// operator.
func TableScaling(st *store.Store, experiment string) string {
	rs := configResults(st, experiment, func(r store.Result) bool { return len(r.ScaleEvents) > 0 })
	t := NewTable(fmt.Sprintf("Scaling timeline — %s", experiment),
		"Config (w-a-d)", "Users", "Writes", "Engine", "At", "Tier", "Replicas")
	for _, r := range rs {
		for _, ev := range r.ScaleEvents {
			t.AddRow(r.Key.Topology, fmt.Sprint(r.Key.Users),
				fmt.Sprintf("%g%%", r.Key.WriteRatioPct), engineLabel(r),
				fmt.Sprintf("%.0fs", ev.TSec), ev.Tier,
				fmt.Sprintf("%d→%d", ev.From, ev.To))
		}
	}
	return t.String()
}
