package main

// allow names the declarations that stay although no non-test code uses
// them, each with its reason. A key is an import path followed by the
// name of a function, constant, variable or type (a type's key also
// covers every method of that type), or by Type.Method.
var allow = map[string]string{
	"elba/benchmark.tinyScale":                   "the harness's own test runs it; benchmark/ changes only with the benchmark",
	"elba/internal/bench/rubis.Bidding":          "the ablation benchmarks and mva's tests build the bidding mix with it",
	"elba/internal/cluster.Cluster.Allocated":    "deploy's tests check with it that undeploy releases every node",
	"elba/internal/cluster.Node.ReadFile":        "deploy's tests read the files a deployment wrote with it",
	"elba/internal/core.AssertWithin":            "the tolerance assertion that core's and bottleneck's tests share",
	"elba/internal/metrics.TDigest.Centroids":    "report's TestFolderMemoryBounded checks the merged sketch against the cap with it",
	"elba/internal/metrics.TDigest.MaxCentroids": "report's TestFolderMemoryBounded checks the merged sketch against the cap with it",
	"elba/internal/metrics.TimeSeries.Points":    "monitor's tests read sampled series with it",
	"elba/internal/monitor.ParseFile":            "monitor's and experiment's tests read monitor files back with it",
	"elba/internal/sim.NewPSStation":             "constructs the processor-sharing reference of BenchmarkAblationDiscipline",
	"elba/internal/sim.PSStation":                "the processor-sharing reference of BenchmarkAblationDiscipline",
	"elba/internal/sim.RAIDb.Read":               "BenchmarkAblationDBReplication drives the replicated database with it",
	"elba/internal/sim.RAIDb.Write":              "BenchmarkAblationDBReplication drives the replicated database with it",
	"elba/internal/sim.Station.Submit":           "the ablation benchmarks and monitor's tests drive a bare station with it",
	"elba/internal/sim.Station.SubmitRes":        "BenchmarkStationMultiResource drives a station's disk and link with it",
}
