package report

import "elba/internal/store"

// A PostRunTable is a per-experiment table that a run's report includes
// only for the experiments whose results carry its observations.
type PostRunTable struct {
	// Name identifies the table: "availability", "engine", "slo" or
	// "scaling".
	Name string
	// Has reports whether a result carries the table's observations.
	Has func(store.Result) bool
	// Render renders the table for one experiment.
	Render func(st *store.Store, experiment string) string
}

// PostRunTables lists the conditional tables in report order: fault
// availability, engine provenance, SLO verdicts and the autoscaling
// timeline.
var PostRunTables = []PostRunTable{
	{"availability", func(r store.Result) bool { return r.FaultProfile != "" }, TableAvailability},
	{"engine", func(r store.Result) bool { return r.Engine != "" }, TableEngineSummary},
	{"slo", func(r store.Result) bool { return r.SLOAssert != "" }, TableSLO},
	{"scaling", func(r store.Result) bool { return len(r.ScaleEvents) > 0 }, TableScaling},
}
