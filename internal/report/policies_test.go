package report

import (
	"strings"
	"testing"

	"elba/internal/store"
)

// TestTableScaling pins the scaling timeline's row order and text on two
// topologies × two write ratios, put in scrambled order: rows sort by
// topology, then write ratio, then users, and each result's events keep
// their firing order.
func TestTableScaling(t *testing.T) {
	st := store.New()
	put := func(topo string, wr float64, users int, engine string, events ...store.ScaleEvent) {
		st.Put(store.Result{
			Key:         store.Key{Experiment: "auto", Topology: topo, Users: users, WriteRatioPct: wr},
			Engine:      engine,
			ScaleEvents: events,
		})
	}
	up := func(at float64, tier string, from int) store.ScaleEvent {
		return store.ScaleEvent{TSec: at, Tier: tier, From: from, To: from + 1}
	}
	put("1-2-1", 15, 400, "fluid", up(30, "app", 2), up(90, "db", 1))
	put("1-1-1", 15, 200, "", up(45, "app", 1))
	put("1-2-1", 0, 600, "des", up(20, "app", 2))
	put("1-1-1", 0, 300, "", up(60, "app", 1), store.ScaleEvent{TSec: 120, Tier: "app", From: 2, To: 1})
	put("1-1-1", 0, 100, "")
	put("1-2-1", 0, 200, "fluid", up(75, "web", 1))
	st.Put(store.Result{ // another experiment: excluded
		Key:         store.Key{Experiment: "other", Topology: "1-1-1", Users: 100},
		ScaleEvents: []store.ScaleEvent{up(5, "app", 1)},
	})

	want := strings.Join([]string{
		"Scaling timeline — auto",
		"Config (w-a-d)  Users  Writes  Engine  At    Tier  Replicas",
		"--------------  -----  ------  ------  ----  ----  --------",
		"1-1-1           300    0%      des     60s   app   1→2     ",
		"1-1-1           300    0%      des     120s  app   2→1     ",
		"1-1-1           200    15%     des     45s   app   1→2     ",
		"1-2-1           200    0%      fluid   75s   web   1→2     ",
		"1-2-1           600    0%      des     20s   app   2→3     ",
		"1-2-1           400    15%     fluid   30s   app   2→3     ",
		"1-2-1           400    15%     fluid   90s   db    1→2     ",
		"",
	}, "\n")
	if got := TableScaling(st, "auto"); got != want {
		t.Fatalf("scaling table:\n%s\nwant:\n%s", got, want)
	}
}
