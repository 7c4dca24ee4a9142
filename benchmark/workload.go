package main

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// clients is the closed loop's size: two callers, each submitting its
// next job only after the previous one's results and report are
// fetched. It matches the two vCPUs the baseline was measured on.
const clients = 2

// scale fixes the job sizes. fullScale is the benchmark; tinyScale keeps
// the same code paths at a size the smoke tests can run under the race
// detector.
type scale struct {
	// setupReps is how many times a run sets itself up from scratch;
	// setup_s is the median, and the last set-up is the one measured.
	setupReps int
	// digestJobs is how many leading jobs (warm-up included) enter the
	// output digest. Every run completes at least these, whatever
	// -seconds says, so the digest is defined for any run length.
	digestJobs int

	desUsers     [3]int // lo, hi, step of the des-sweep population axis
	desTimeScale float64

	kneeTimeScale float64
	kneeLo        int
	kneeHi        int
	kneeRes       int

	observeTimeScale float64

	// replayDocs is warm-replay's working set: the number of des-sweep
	// documents filled cold during set-up and resubmitted round-robin.
	// Even, so the two clients never replay the same document at once.
	replayDocs int
	// replayTimeScale shortens the cold fill's trials. A replayed point
	// costs the same whatever its simulated length, so this only keeps
	// the set-up short.
	replayTimeScale float64
}

var (
	fullScale = scale{
		setupReps: 5, digestJobs: 8,
		desUsers: [3]int{100, 1900, 200}, desTimeScale: 0.25,
		kneeTimeScale: 0.05, kneeLo: 500, kneeHi: 1000000, kneeRes: 1000,
		observeTimeScale: 0.1,
		replayDocs:       30, replayTimeScale: 0.05,
	}
	tinyScale = scale{
		setupReps: 1, digestJobs: 4,
		desUsers: [3]int{100, 300, 200}, desTimeScale: 0.02,
		kneeTimeScale: 0.01, kneeLo: 500, kneeHi: 20000, kneeRes: 2000,
		observeTimeScale: 0.01,
		replayDocs:       4, replayTimeScale: 0.02,
	}
)

// workloads maps each workload to the function that builds its
// environment in a directory: service, caches and, for warm-replay, the
// cold fill. That build is the set-up setup_s measures.
var workloads = map[string]func(cfg *runConfig, dir string) (env, error){
	"des-sweep":      openDesSweep,
	"fluid-knee":     openFluidKnee,
	"observe-stream": openObserveStream,
	"warm-replay":    openWarmReplay,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mix64 is the splitmix64 finalizer: the harness's only source of
// randomness, so a seed maps to the same documents on every platform
// and Go release.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is the i-th value of the named stream under seed.
func draw(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return mix64(seed ^ mix64(h.Sum64()^mix64(uint64(i))))
}

// stratified returns which of n options job i uses: jobs walk the
// options in blocks of n, each block in its own seed-drawn order. Every
// run therefore covers the options evenly, so a seed changes the order
// and the trial seeds but not the mix — which is what keeps a metric
// from drifting with the seed.
func stratified(seed uint64, stream string, i, n int) int {
	block := i / n
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := int(draw(seed, stream, block*n+k) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%n]
}

// seeded adapts a document generator to the job sequence. The warm-up
// jobs draw from a fixed seed, so set-up time does not vary with -seed;
// the timed jobs start the seeded sequence at its first position, so
// its blocks stay whole. idx always names the document.
func seeded(seed uint64, gen func(seed uint64, pos, idx int) (name, src string)) func(idx int) (string, string) {
	return func(idx int) (string, string) {
		if idx < clients {
			return gen(0, idx, idx)
		}
		return gen(seed, idx-clients, idx)
	}
}

// trialSeed draws the `seed N;` clause of job i.
func trialSeed(seed uint64, stream string, i int) uint64 {
	return 1 + draw(seed, stream+"/seed", i)%1_000_000_000
}

// scaleOut is RUBiS's §V scale-out grid: every 1-a-d topology up to
// eight application servers and two databases.
var scaleOut = [][2]int{
	{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2},
	{5, 1}, {5, 2}, {6, 1}, {6, 2}, {7, 1}, {7, 2}, {8, 1}, {8, 2},
}

// desDoc is one des-sweep campaign: a RUBiS bidding-mix sweep of one
// scale-out topology from idle to saturated, with a fresh seed so every
// point misses any cache.
func desDoc(sc scale, seed uint64, stream string, pos, idx int) (name, src string) {
	t := scaleOut[stratified(seed, stream, pos, len(scaleOut))]
	name = fmt.Sprintf("%s-%d", stream, idx)
	src = fmt.Sprintf(`experiment %q {
	benchmark rubis;
	platform  emulab;
	appserver jonas;
	topology  { web 1; app %d; db %d; }
	workload  { users %d to %d step %d; writeratio 15; }
	slo       { avg 1000ms; }
	seed %d;
}
`, name, t[0], t[1], sc.desUsers[0], sc.desUsers[1], sc.desUsers[2], trialSeed(seed, stream, pos))
	return name, src
}

// kneeTopologies are the 1-a-d topologies fluid-knee searches over.
var kneeTopologies = [][2]int{
	{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2},
}

// kneeWriteRatios are fluid-knee's RUBBoS mixes: 0 is the read-only mix,
// the others the submission mix at that write ratio. A read-only search
// costs about half a submission one, so one read-only mix in four keeps
// the median job and probe inside the submission mode instead of on the
// gap between two equal modes, where it would jump from run to run.
var kneeWriteRatios = []int{0, 5, 15, 25}

// kneeDoc is one fluid-knee search target: a RUBBoS mix on one topology
// with a seed-drawn average SLO.
func kneeDoc(seed uint64, pos, idx int) (name, src string) {
	k := stratified(seed, "fluid-knee", pos, len(kneeTopologies)*len(kneeWriteRatios))
	t := kneeTopologies[k/len(kneeWriteRatios)]
	mix, wr := "read-only", ""
	if r := kneeWriteRatios[k%len(kneeWriteRatios)]; r > 0 {
		mix, wr = "submission", fmt.Sprintf(" writeratio %d;", r)
	}
	slo := 500 + draw(seed, "fluid-knee/slo", pos)%401
	name = fmt.Sprintf("fluid-knee-%d", idx)
	src = fmt.Sprintf(`experiment %q {
	benchmark rubbos;
	platform  emulab;
	mix       %s;
	topology  { web 1; app %d; db %d; }
	workload  { users 500;%s }
	slo       { avg %dms; }
	seed %d;
}
`, name, mix, t[0], t[1], wr, slo, trialSeed(seed, "fluid-knee", pos))
	return name, src
}

// observeTemplates are the three observation-driven experiments shipped
// in specs/ (flash crowd, autoscale, misbehaving), copied here so that a
// later edit to the shipped examples cannot change the benchmark. %q is
// the experiment name and %d the seed.
var observeTemplates = []string{
	`experiment %q {
	benchmark rubbos;
	platform  emulab;
	appserver tomcat;
	topology  { web 1; app 2; db 1; }
	workload  { users clamp(100 + 400*ramp((t - 300s)/120s), 100, 500); writeratio 15; }
	demands   { db { disk 9ms; } }
	slo       { assert p99(rt) < 1s && util(db, disk) < 0.9; }
	seed %d;
}
`,
	`experiment %q {
	benchmark rubbos;
	platform  emulab;
	appserver tomcat;
	topology  { web 1; app 2; db 1; }
	workload  { users clamp(120 + 500*ramp((t - 100s)/15s) - 500*ramp((t - 400s)/15s), 120, 620); writeratio 15; }
	trial     { warmup 100s; run 600s; cooldown 50s; }
	demands   { app { cpu 40; } }
	slo       { assert p90(rt) < 5s; }
	policies  {
		scale app by 2 when util(app, cpu) > 0.8 cooldown 30s max 6;
		scale app in by 2 when util(app, cpu) < 0.3 cooldown 60s min 2;
	}
	seed %d;
}
`,
	`experiment %q {
	benchmark rubis;
	platform  emulab;
	appserver jonas;
	topology  { web 1; app 2; db 1; }
	workload  { users 400; writeratio 15; }
	faults {
		profile light;
		MYSQL1 slowdown 0.5 at 60s for 60s;
		MYSQL1 stall 0.05 at 150s for 20s;
		client errorburst 0.2 at 200s for 30s;
	}
	seed %d;
}
`,
}

var observeNames = []string{"rubbos-flashcrowd", "rubbos-autoscale", "rubis-misbehaving"}

// observeDoc is one observe-stream campaign: the templates in turn, each
// with a fresh seed.
func observeDoc(seed uint64, pos, idx int) (name, src string) {
	k := pos % len(observeTemplates)
	name = fmt.Sprintf("%s-%d", observeNames[k], idx)
	return name, fmt.Sprintf(observeTemplates[k], name, trialSeed(seed, "observe-stream", pos))
}
