package experiment

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/metrics"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// FailureErrorRate is the error fraction above which a trial is recorded
// as failed-to-complete, producing the paper's Table 7 missing squares.
const FailureErrorRate = 0.05

// Trial engines. The empty string selects the historical DES path and
// records no engine in the stored result.
const (
	// EngineDES is the exact discrete-event simulation: one Markov
	// emulator per user session.
	EngineDES = "des"
	// EngineFluid is the aggregated user-class flow approximation, whose
	// cost is independent of the population.
	EngineFluid = "fluid"
)

// TrialConfig parameterizes one trial run.
type TrialConfig struct {
	// Users is the concurrent-user population for this trial.
	Users int
	// Engine selects the trial engine: EngineDES, EngineFluid, or ""
	// (the historical DES path, recorded without an engine tag).
	Engine string
	// WriteRatioPct is the database write ratio in percent.
	WriteRatioPct float64
	// TimeScale shrinks the trial periods for fast runs (1.0 = the full
	// paper protocol; 0.1 = one tenth). Defaults to 1.0.
	TimeScale float64
	// Seed overrides the derived deterministic seed when non-zero.
	Seed uint64
	// RootSeed, when non-zero, is mixed into the derived trial seed along
	// with the experiment name. It lets a whole experiment set be re-run
	// under a different random universe (Runner.Seed) while every trial's
	// stream stays a pure function of (root, experiment, topology, users,
	// write ratio) — independent of worker count or execution order.
	RootSeed uint64
	// FaultPlan is the in-trial fault schedule to inject (nil = none).
	// Event times are relative to the run period and scale with the trial.
	FaultPlan []fault.Event
	// FaultProfile names the profile that produced FaultPlan; it is
	// recorded in the stored result ("" when no profile is active).
	FaultProfile string
	// Attempt is the retry-attempt index for this workload point (0 = the
	// first try). Non-zero attempts are mixed into the derived seed so a
	// retried trial draws a fresh random universe; attempt 0 preserves the
	// historical derivation bit-for-bit.
	Attempt int
	// TraceRate head-samples this fraction of measured requests into span
	// traces (0 = tracing off). The sampling stream derives from the trial
	// seed under its own domain label, so enabling tracing never perturbs
	// what the trial measures.
	TraceRate float64
	// TraceExemplars is the number of slowest traces persisted in full in
	// the stored result when tracing is on.
	TraceExemplars int
	// SketchRT, when true, folds the measured successful response times
	// into a mergeable t-digest attached to the stored result
	// (Result.RTSketch, milliseconds). The sketch taps exactly the stream
	// the exact percentiles are computed from and never touches the
	// trial's random streams, so every other field of the result is
	// byte-identical with the knob off. The fluid engine has no
	// per-request stream and records no sketch.
	SketchRT bool
	// RTObserver, when set, observes every measured successful response
	// time (seconds, completion order) as the trial runs — the streaming
	// path's live tap and the differential tests' window into real trial
	// streams. Ignored by the fluid engine.
	RTObserver metrics.Observer

	// models, set by a Runner, supplies the workload model the runner's
	// trials share; nil builds one for this trial.
	models *workloadModels
}

// model returns the trial's workload model.
func (cfg *TrialConfig) model(e *spec.Experiment) (*bench.Profile, error) {
	if cfg.models == nil {
		return Model(e, cfg.WriteRatioPct)
	}
	return cfg.models.get(e, cfg.WriteRatioPct)
}

// TrialOutcome carries a trial's stored result plus the raw monitoring
// session for figure rendering.
type TrialOutcome struct {
	Result  store.Result
	Monitor *monitor.Monitor
	// RunWindow is the [start, end) simulated-time window of the
	// measurement period, for windowed series queries.
	RunWindow [2]float64
	// FromCache marks a result served from the runner's trial cache: no
	// simulation ran, so Monitor is nil and RunWindow is zero, but
	// Result is byte-identical to what the trial would have measured.
	FromCache bool
}

// memory profile per tier: idle resident set and per-request working set.
var memProfile = map[string]struct{ base, perJob float64 }{
	"web":    {80, 0.2},
	"app":    {420, 0.5},
	"db":     {220, 0.4},
	"client": {120, 0.1},
}

// tierNames maps expr tier indices to TBL tier names.
var tierNames = [expr.NumTiers]string{"web", "app", "db"}

// engine is the model a trial runs on: the exact DES (engine_des.go) or
// the fluid approximation (engine_fluid.go). The trial protocol, the
// monitor wiring, the observation-window loop and result assembly are
// written once against it, so each engine supplies only what it alone
// models.
type engine interface {
	// counters attaches the engine's monitor counters for a role of tier
	// ti, hosted on node, to p, and returns the role's cumulative served
	// operations.
	counters(p monitor.Probe, ti int, node *cluster.Node) (monitor.Probe, func() float64)
	// advance runs the trial to absolute time t.
	advance(t float64)
	// measure opens (on) or closes the measured run period.
	measure(on bool)
	// observe closes the observation window opened by its previous call
	// and reads it.
	observe() windowReading
	// retarget steers the emulated population to n users.
	retarget(n int)
	// replicas reports a tier's live server count. scale moves it toward
	// target and returns the count reached, which falls short when the
	// tier runs out of spare nodes.
	replicas(ti int) int
	scale(ti, target int) int
	// inject starts a fault now, lasting dur seconds.
	inject(ev fault.Event, dur float64)
	// fill writes the measured run's request statistics into res.
	fill(res store.Result) store.Result
}

// windowReading is what an engine reports when an observation window
// closes: its own clock, the window's goodput and response-time
// quantiles, and per tier the cumulative busy integrals with the capacity
// units that divide their deltas into utilizations.
type windowReading struct {
	now float64
	// goodput counts the window's successful, in-deadline completions.
	goodput float64
	// served reports whether q holds the window's p50, p90 and p99
	// (seconds); an empty window has none.
	served bool
	q      [3]float64
	busy   [expr.NumTiers][expr.NumResources]float64
	units  [expr.NumTiers][expr.NumResources]float64
}

// trialPlan is one trial's scaled protocol and the inputs an engine is
// built from.
type trialPlan struct {
	e     *spec.Experiment
	d     *mulini.Deployment
	p     *deploy.Placement
	cfg   TrialConfig
	model *bench.Profile
	k     *sim.Kernel
	seed  uint64
	// warm and ts place the run period's fault windows; rampUp spreads
	// the initial sessions' arrivals.
	warm, ts, rampUp float64
	// maxSessions is the deployment's session capacity (0 = unknown).
	maxSessions int
}

// RunTrial executes one trial of experiment e against a deployed
// placement. The simulated application is constructed from the placement's
// actual nodes: CPU speeds come from the allocated hardware and the
// session capacity from the deployed app-server packages, so a wrong
// deployment shows up as a wrong measurement. Both engines run the same
// protocol (ramp-up, warm-up, measured run, cool-down), the same monitor
// sampling schedule and the same result-assembly rules, so a fluid
// trial's stored output is shaped exactly like an exact one.
func RunTrial(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement, cfg TrialConfig) (*TrialOutcome, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("experiment: trial needs at least one user")
	}
	newEngine := newDESEngine
	switch cfg.Engine {
	case "", EngineDES:
	case EngineFluid:
		newEngine = newFluidEngine
	default:
		return nil, fmt.Errorf("experiment: unknown trial engine %q", cfg.Engine)
	}
	ts := cfg.TimeScale
	if ts <= 0 {
		ts = 1.0
	}
	model, err := cfg.model(e)
	if err != nil {
		return nil, err
	}
	warm := e.Trial.WarmupSec * ts
	run := e.Trial.RunSec * ts
	cool := e.Trial.CooldownSec * ts
	rampUp := warm / 2
	if rampUp > 10 {
		rampUp = 10
	}
	maxSessions := sessionCapacity(d, p)

	// Expression hooks: nil for expression-free specs, which therefore run
	// the measured period in one step.
	hooks, err := newExprHooks(e, warm, run, ts, e.Monitor.IntervalSec*ts, maxSessions)
	if err != nil {
		return nil, err
	}
	seed := trialSeed(e, d, cfg)
	k := sim.NewKernel(seed)
	eng, err := newEngine(trialPlan{e: e, d: d, p: p, cfg: cfg, model: model, k: k, seed: seed,
		warm: warm, ts: ts, rampUp: rampUp, maxSessions: maxSessions})
	if err != nil {
		return nil, err
	}
	probes, hostOf := buildProbes(d, p, model, eng)
	mon, err := monitor.New(k, monitor.Config{
		IntervalSec: e.Monitor.IntervalSec * ts,
		Metrics:     e.Monitor.Metrics,
		HorizonSec:  warm + run + cool,
	}, probes)
	if err != nil {
		return nil, err
	}

	mon.Start()
	eng.advance(warm)
	eng.measure(true)
	runStart := k.Now()
	if hooks != nil {
		hooks.runWindows(eng)
	}
	eng.advance(warm + run)
	eng.measure(false)
	runEnd := k.Now()
	eng.advance(warm + run + cool)
	mon.Stop()

	res := assembleResult(e, d, eng, mon, hostOf, cfg, runStart, runEnd)
	res.DeployRetries = p.Retries
	res.DeploySeconds = p.DeploySec
	if hooks != nil {
		hooks.record(&res)
	}
	return &TrialOutcome{Result: res, Monitor: mon, RunWindow: [2]float64{runStart, runEnd}}, nil
}

// trialSeed is the seed of a trial's random universe: cfg.Seed when set,
// else a pure function of the trial coordinates, the runner's root seed
// and the retry attempt.
func trialSeed(e *spec.Experiment, d *mulini.Deployment, cfg TrialConfig) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	seed := deriveSeed(e.Seed, d.Topology.String(), cfg.Users, cfg.WriteRatioPct)
	if cfg.RootSeed != 0 {
		seed = mixRootSeed(seed, cfg.RootSeed, e.Name)
	}
	return mixAttempt(seed, cfg.Attempt)
}

// specFaultEvent converts a TBL fault declaration to a fault event.
func specFaultEvent(f spec.Fault) (fault.Event, error) {
	kind := fault.Crash
	if f.Kind != "" {
		k, ok := fault.KindByName(f.Kind)
		if !ok {
			return fault.Event{}, fmt.Errorf("experiment: unknown fault kind %q", f.Kind)
		}
		kind = k
	}
	return fault.Event{Kind: kind, Role: f.Role, AtSec: f.AtSec,
		DurationSec: f.DurationSec, Factor: f.Factor}, nil
}

// sessionCapacity reports the deployment's total session capacity: each
// app-server instance holds MaxClients persistent connections, and
// multi-CPU nodes run one instance per CPU (the Warp blades run two
// WebLogic instances; the single-CPU Emulab nodes run one JOnAS each,
// giving the paper's 700-user limit for the 1-2-1 configuration).
func sessionCapacity(d *mulini.Deployment, p *deploy.Placement) int {
	maxSessions := 0
	for _, role := range d.Roles("app") {
		a, ok := d.Find(role)
		if !ok || len(a.Packages) == 0 {
			continue
		}
		node, ok := p.Node(role)
		if !ok {
			continue
		}
		maxSessions += a.Packages[0].MaxClients * node.Cores()
	}
	return maxSessions
}

// buildProbes wires a monitor probe to every deployed node. Roles of the
// modelled tiers carry the engine's counters, with network and disk
// operation counts derived from served operations and the workload's mean
// transfer sizes; the other hosts (the client) carry memory only.
func buildProbes(d *mulini.Deployment, p *deploy.Placement, model *bench.Profile,
	eng engine) ([]monitor.Probe, map[string]string) {

	reqBytes, replyBytes := model.MeanBytes()
	hostOf := map[string]string{}
	var probes []monitor.Probe
	for _, a := range d.Assignments {
		node, ok := p.Node(a.Role)
		if !ok {
			continue
		}
		hostOf[a.Role] = node.Name()
		mp := memProfile[a.Tier]
		probe := monitor.Probe{
			Host:        node.Name(),
			Role:        a.Role,
			TotalMemMB:  float64(node.Pool().MemoryMB),
			BaseMemMB:   mp.base,
			MemPerJobMB: mp.perJob,
		}
		if ti, ok := expr.TierIndex(a.Tier); ok {
			var ops func() float64
			probe, ops = eng.counters(probe, ti, node)
			perReq := reqBytes + replyBytes
			switch a.Tier {
			case "db":
				perReq = 600 // query + row traffic, not page bodies
			case "app":
				perReq = replyBytes + 400
			}
			probe.NetBytes = func() float64 { return ops() * perReq }
			if a.Tier == "db" {
				probe.DiskOps = func() float64 { return ops() * 1.6 }
			}
		}
		probes = append(probes, probe)
	}
	return probes, hostOf
}

// mixRootSeed folds a runner-level root seed and the experiment name into
// a derived trial seed. Keeping this a separate step (a no-op when the
// root is zero) preserves every historical seed derivation bit-for-bit.
func mixRootSeed(h, root uint64, experiment string) uint64 {
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	mix(root * 0x9e3779b97f4a7c15)
	for i := 0; i < len(experiment); i++ {
		mix(uint64(experiment[i]))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// mixAttempt folds a retry-attempt index into a derived trial seed so a
// retried workload point draws a fresh random stream. Attempt 0 is a
// no-op, keeping every historical derivation bit-for-bit.
func mixAttempt(h uint64, attempt int) uint64 {
	if attempt <= 0 {
		return h
	}
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	h *= 0x100000001b3
	if h == 0 {
		h = 1
	}
	return h
}

// deriveSeed mixes the experiment seed with the trial coordinates so each
// trial has an independent, reproducible random stream.
func deriveSeed(base uint64, topo string, users int, wr float64) uint64 {
	h := base
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	for i := 0; i < len(topo); i++ {
		mix(uint64(topo[i]))
	}
	mix(uint64(users))
	mix(uint64(wr * 1000))
	if h == 0 {
		h = 1
	}
	return h
}
