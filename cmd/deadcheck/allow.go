package main

// allow names the declarations and fields that stay although no non-test
// code uses them, each with its reason. A key is an import path followed
// by the name of a function, constant, variable or type, by Type.Method,
// or by Type.field. A type's key covers the type alone; its methods and
// fields need keys of their own.
var allow = map[string]string{
	"elba/benchmark.tinyScale":                    "the harness's own test runs it; benchmark/ changes only with the benchmark",
	"elba/internal/bench/rubis.Bidding":           "the ablation benchmarks and mva's tests build the bidding mix with it",
	"elba/internal/cluster.Cluster.Allocated":     "deploy's tests check with it that undeploy releases every node",
	"elba/internal/cluster.Node.ReadFile":         "deploy's tests read the files a deployment wrote with it",
	"elba/internal/core.AssertWithin":             "the tolerance assertion that core's and bottleneck's tests share",
	"elba/internal/metrics.TDigest.Centroids":     "report's TestFolderMemoryBounded checks the merged sketch against the cap with it",
	"elba/internal/metrics.TDigest.MaxCentroids":  "report's TestFolderMemoryBounded checks the merged sketch against the cap with it",
	"elba/internal/metrics.TimeSeries.Points":     "monitor's tests read sampled series with it",
	"elba/internal/monitor.ParseFile":             "monitor's and experiment's tests read monitor files back with it",
	"elba/internal/monitor.Record.Device":         "monitor's tests check the device a parsed record names",
	"elba/internal/monitor.Record.Host":           "monitor's tests check the host a parsed record names",
	"elba/internal/monitor.Record.TimeSec":        "monitor's tests check a parsed record's sample time",
	"elba/internal/sim.NewPSStation":              "constructs the processor-sharing reference of BenchmarkAblationDiscipline",
	"elba/internal/sim.PSStation.BusyTime":        "sim's tests check the processor-sharing reference's busy-time accounting with it",
	"elba/internal/sim.PSStation.Completed":       "sim's tests check the processor-sharing reference's completion count with it",
	"elba/internal/sim.PSStation.ResetAccounting": "sim's tests check that it clears the processor-sharing reference's counters",
	"elba/internal/sim.PSStation.Submit":          "BenchmarkAblationDiscipline drives the processor-sharing reference with it",
	"elba/internal/sim.RAIDb.Read":                "BenchmarkAblationDBReplication drives the replicated database with it",
	"elba/internal/sim.NTier.StickyApp":           "BenchmarkAblationStickySessions turns session affinity on to compare it with per-request balancing",
	"elba/internal/sim.RAIDb.Write":               "BenchmarkAblationDBReplication drives the replicated database with it",
	"elba/internal/sim.Station.Submit":            "the ablation benchmarks and monitor's tests drive a bare station with it",
	"elba/internal/sim.Station.SubmitRes":         "BenchmarkStationMultiResource drives a station's disk and link with it",
}
