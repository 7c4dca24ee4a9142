package main

// pinnedDigests are the output digests of seed 1: the
// SHA-256 over the results JSON of each workload's first digestJobs jobs
// (knee outcomes for fluid-knee). A run with -seed 1 fails unless its
// digest matches, so a change that alters any result shows up as
// incorrect rather than as a speed-up.
var pinnedDigests = map[string]string{
	"des-sweep":      "47cc5e7beeda25242e7d13203993def81139d8c92added622aadb104e69c9da6",
	"fluid-knee":     "ef03acb2c661a11fcab4e0e1d33431c96a724277867f867b1e458526f90b21ef",
	"observe-stream": "86126c96e8c4e0924c3cc9ec868d0f34e2ef2f4924ca60398eacb2770b4aac21",
	"warm-replay":    "969b9819411889a06907c81ca8b2ec3f8d0d20a886ab59f969a8d8e72e745b37",
}
