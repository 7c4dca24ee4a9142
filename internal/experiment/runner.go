package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/fault"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// Runner executes whole experiment sets: for every topology it deploys
// the Mulini-generated bundle, sweeps the workload grid, and records one
// result per trial.
type Runner struct {
	catalog *cim.Catalog
	gen     *mulini.Generator
	results *store.Store

	// TimeScale shrinks every trial's periods (1.0 = full paper
	// protocol). Exposed so tests and quick benchmarks can run the same
	// pipeline faster.
	TimeScale float64
	// OnTrial, when set, observes each stored result as it lands. One
	// deployment's calls never overlap and arrive in grid order; calls
	// from different deployments may overlap when Parallel > 1.
	OnTrial func(store.Result)
	// ArchiveDir, when set, stores every trial's raw monitor output
	// (sysstat-format text, one file per host) under
	// <dir>/<experiment>/<topology>/u<users>_w<ratio>/ — the per-host
	// data files the paper collects by the gigabyte (Table 3).
	ArchiveDir string
	// Parallel runs this many deployments of a sweep concurrently
	// (default 1 = sequential). Trials are independent simulations;
	// cluster allocation is serialized internally, and the effective
	// parallelism is capped so concurrent topologies always fit the
	// platform's node count. OnTrial may be called from multiple
	// goroutines when Parallel > 1.
	Parallel int
	// TrialParallel runs this many trials of one deployment's workload
	// grid concurrently (default 1 = sequential), and, for single-point
	// runs, this many trial replicas. Every trial draws from a random
	// stream derived purely from its coordinates, and results are
	// committed to the store in grid order as each prefix of the grid
	// completes, so the stored results are bit-identical for every
	// TrialParallel value.
	TrialParallel int
	// Seed, when non-zero, is a root seed mixed into every derived trial
	// seed together with the experiment name. Zero keeps the historical
	// per-experiment derivation.
	Seed uint64
	// FaultProfile, when set and enabled, injects deterministic faults
	// into every deployment and trial: slow nodes and deploy-step glitches
	// at deployment scope, crash/slowdown/stall/errorburst windows inside
	// trials. Nil falls back to the experiment's own `profile` declaration
	// (if any). Plans derive purely from (Seed, coordinates), so seeded
	// runs stay byte-identical for every Parallel/TrialParallel value.
	FaultProfile *fault.Profile
	// TrialRetries is the per-workload-point retry budget: a trial that
	// fails to complete is re-run up to this many extra times, each with a
	// fresh attempt-mixed seed, and the last attempt's result is kept
	// (0 = no retries).
	TrialRetries int
	// TraceRate head-samples this fraction of every trial's measured
	// requests into span traces (0 = tracing off). Each trial's traced
	// subset derives purely from its coordinates, so seeded traced sweeps
	// are byte-identical for every Parallel/TrialParallel value.
	TraceRate float64
	// TraceExemplars is the number of slowest traces each traced trial
	// persists in full in its stored result.
	TraceExemplars int
	// SketchRT attaches a mergeable response-time t-digest to every DES
	// trial's stored result (Result.RTSketch). Off by default: sketch-free
	// results serialize byte-identically to historical output.
	SketchRT bool
	// ScalingEngine, when non-empty, overrides the experiment's scaling
	// clause: "des", "fluid", or "auto" (with ScalingThreshold).
	ScalingEngine string
	// ScalingThreshold is the population at which engine "auto" switches
	// to the fluid approximation. Used only with ScalingEngine "auto".
	ScalingThreshold int
	// TrialCache, when set, memoizes every workload point's result by
	// its full trial coordinates (TrialKey): a repeated point — within a
	// sweep, across sweeps, or across campaigns sharing the cache — is
	// served from the cache instead of re-simulated, byte-identically,
	// because trials are pure functions of the key. Nil (the default)
	// runs every point, exactly as before the cache existed.
	TrialCache TrialCache

	// cacheHits and cacheMisses count this runner's workload points
	// served from / computed into TrialCache.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// models holds the workload models this runner's trials share.
	models workloadModels

	// clusterMu serializes cluster mutations (allocate/deploy/release).
	clusterMu sync.Mutex
}

// NewRunner builds a runner over the catalog; results accumulate in st.
func NewRunner(catalog *cim.Catalog, st *store.Store) (*Runner, error) {
	gen, err := mulini.NewGenerator(catalog, nil)
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = store.New()
	}
	return &Runner{
		catalog:   catalog,
		gen:       gen,
		results:   st,
		TimeScale: 1.0,
	}, nil
}

// engineFor resolves the trial engine for a workload point: the runner's
// override wins over the experiment's scaling clause; both absent keeps
// the historical untagged DES path.
func (r *Runner) engineFor(e *spec.Experiment, users int) string {
	if r.ScalingEngine != "" {
		return spec.Scaling{ThresholdUsers: r.ScalingThreshold, Engine: r.ScalingEngine}.EngineFor(users)
	}
	return e.Scaling.EngineFor(users)
}

// CacheHits reports the workload points this runner served from its
// trial cache (0 when no cache is attached).
func (r *Runner) CacheHits() uint64 { return r.cacheHits.Load() }

// CacheMisses reports the workload points this runner computed and
// stored into its trial cache (0 when no cache is attached).
func (r *Runner) CacheMisses() uint64 { return r.cacheMisses.Load() }

// Generator exposes the Mulini generator (the scale-out controller and
// reports use it directly).
func (r *Runner) Generator() *mulini.Generator { return r.gen }

// newCluster materializes the experiment's platform.
func (r *Runner) newCluster(e *spec.Experiment) (*cluster.Cluster, error) {
	platform, ok := r.catalog.PlatformByName(e.Platform)
	if !ok {
		return nil, fmt.Errorf("experiment: platform %q not in catalog", e.Platform)
	}
	return cluster.New(platform)
}

// RunExperimentContext executes the full sweep of e: every topology ×
// user population × write ratio. Results (including failed trials) land
// in the runner's store. With Parallel > 1, deployments run concurrently.
// Once ctx is cancelled, no further trial starts. Trials already in flight
// (milliseconds of simulation) finish and commit like any other, and if
// any point was skipped the sweep returns an error wrapping ctx's. Results
// committed before the cancellation stay in the store, so an aborted
// campaign keeps each deployment's completed prefix.
//
// A failing deployment does not stop the others: the returned error joins
// every failing deployment's error in deployment order, at any Parallel
// value. New deployments stop starting only once a deployment fails after
// ctx is cancelled.
func (r *Runner) RunExperimentContext(ctx context.Context, e *spec.Experiment) error {
	deployments, err := r.gen.Generate(e)
	if err != nil {
		return err
	}
	cl, err := r.newCluster(e)
	if err != nil {
		return err
	}
	hash := specHash(e, r.TrialCache)
	// Cap parallelism so the largest concurrent topologies always fit
	// the platform; each deployment also occupies a client machine.
	workers := r.Parallel
	for _, d := range deployments {
		if m := d.MachineCount(); m > 0 {
			workers = min(workers, cl.Size()/m)
		}
	}
	errs := make([]error, len(deployments))
	ordered(len(deployments), workers, func(i int) bool {
		errs[i] = r.onDeployment(e, cl, deployments[i], hash, func(dep *deployed) error {
			return r.runDeployment(ctx, dep)
		})
		return errs[i] != nil && ctx.Err() != nil
	}, func(int) {})
	return errors.Join(errs...)
}

// profileFor resolves the fault profile for an experiment: the runner's
// override wins, else the experiment's own TBL declaration, else none.
func (r *Runner) profileFor(e *spec.Experiment) fault.Profile {
	if r.FaultProfile != nil {
		return *r.FaultProfile
	}
	if e.FaultProfile != "" {
		if p, ok := fault.ProfileByName(e.FaultProfile); ok {
			return p
		}
	}
	return fault.Profile{}
}

// serverRoles lists the deployment's server roles in canonical (tier,
// replica) order — the coordinate basis for fault-plan derivation.
func serverRoles(d *mulini.Deployment) []string {
	var roles []string
	for _, tier := range []string{"web", "app", "db"} {
		roles = append(roles, d.Roles(tier)...)
	}
	return roles
}

// armDeployer wires an enabled fault profile into a deployer: slow-node
// degradation factors, the retry policy, and the step-glitch injector.
// Everything derives from (Seed, experiment, topology) coordinates.
func (r *Runner) armDeployer(dp *deploy.Deployer, prof fault.Profile, e *spec.Experiment, d *mulini.Deployment) {
	if !prof.Enabled() {
		return
	}
	topo := d.Topology.String()
	dp.SetNodeFactors(prof.NodeFactors(r.Seed, e.Name, topo, serverRoles(d)))
	dp.SetRetryPolicy(deploy.DefaultRetryPolicy)
	dp.SetStepFault(func(script string, line int, verb, role string) int {
		return prof.GlitchCount(r.Seed, e.Name, topo, script, line)
	})
}

// deployed is one topology of an experiment on its placement: what every
// workload point run there shares.
type deployed struct {
	e         *spec.Experiment
	d         *mulini.Deployment
	placement *deploy.Placement
	prof      fault.Profile
	// specHash is specHash(e, cache) for the cache the points run
	// through.
	specHash string
}

// specHash returns the spec part of the trial keys of e's points,
// e.TrialHash(), when a cache will key them, and "" when none will. The
// hash renders and digests the whole canonical spec, so a sweep or a knee
// search computes it once for all of its points.
func specHash(e *spec.Experiment, cache TrialCache) string {
	if cache == nil {
		return ""
	}
	return e.TrialHash()
}

// runPoint runs one workload point through the trial cache: a key
// already cached (or in flight on another campaign sharing the cache)
// is served without simulating, everything else is computed by
// runPointUncached and cached on success. With no cache attached the
// uncached path runs directly — byte- and allocation-identical to the
// pre-cache runner.
func (r *Runner) runPoint(ctx context.Context, cache TrialCache, dep *deployed, cfg TrialConfig, workers int) (*TrialOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cache == nil {
		return r.runPointUncached(ctx, dep, cfg, workers)
	}
	var fresh *TrialOutcome
	res, _, err := cache.Do(r.trialKey(dep.specHash, dep.d.Topology.String(), cfg), func() (store.Result, error) {
		out, err := r.runPointUncached(ctx, dep, cfg, workers)
		if err != nil {
			return store.Result{}, err
		}
		if out == nil {
			return store.Result{}, fmt.Errorf("experiment: trial %s/%s u=%d produced no outcome",
				dep.e.Name, dep.d.Topology, cfg.Users)
		}
		fresh = out
		return out.Result, nil
	})
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		// Our computation ran: hand back the full outcome, monitor data
		// and all, exactly as the uncached path would.
		r.cacheMisses.Add(1)
		return fresh, nil
	}
	r.cacheHits.Add(1)
	return &TrialOutcome{Result: res, FromCache: true}, nil
}

// runPointUncached runs one workload point, retrying failed trials up to
// the runner's retry budget with attempt-mixed seeds. It returns the
// first completed attempt, or the last attempt when the budget runs out.
func (r *Runner) runPointUncached(ctx context.Context, dep *deployed, cfg TrialConfig, workers int) (*TrialOutcome, error) {
	retries := r.TrialRetries
	if retries < 0 {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acfg := cfg
		acfg.Attempt = attempt
		out, err := RunReplicatedTrialParallel(dep.e, dep.d, dep.placement, acfg, dep.e.Repeat, workers)
		if err != nil || out == nil {
			return out, err
		}
		// Record the attempt count only once a retry is actually spent, so
		// untroubled sweeps serialize exactly as they did before retries
		// existed (Attempts is omitempty and 0 means "one attempt").
		if attempt > 0 {
			out.Result.Attempts = attempt + 1
		}
		if out.Result.Completed || attempt >= retries {
			return out, nil
		}
	}
}

// runDeployment sweeps dep's workload grid. Points run on TrialParallel
// workers, each against its own kernel, and commit (store, archive,
// OnTrial) in grid order as soon as every earlier point has committed.
// Trial seeds derive purely from the grid coordinates, so the store's
// contents do not depend on how the grid is executed.
//
// One rule holds at every worker count. A point's error does not stop the
// grid; the returned error joins every failing point's in grid order, and
// nothing after the first error is stored. A failed trial is stored like
// any other result (the paper's tables keep failed cells as gaps). No
// further point starts after an error seen once ctx is cancelled.
func (r *Runner) runDeployment(ctx context.Context, dep *deployed) error {
	e, d := dep.e, dep.d
	type gridPoint struct {
		wr    float64
		users int
	}
	// A users expression collapses the population axis to one trial whose
	// grid coordinate is the expression's value at t = 0; the population
	// then evolves inside the trial at the observation cadence.
	usersVals := e.Workload.Users.Values()
	if e.Workload.UsersExpr != "" {
		u0, err := initialUsers(e, sessionCapacity(d, dep.placement))
		if err != nil {
			return err
		}
		usersVals = []float64{float64(u0)}
	}
	var points []gridPoint
	for _, wr := range e.Workload.WriteRatioPct.Values() {
		for _, users := range usersVals {
			points = append(points, gridPoint{wr: wr, users: int(users)})
		}
	}
	// TrialParallel goes to the points, or to the replicas of a lone one.
	workers, replicaWorkers := r.TrialParallel, 1
	if len(points) == 1 {
		workers, replicaWorkers = 1, r.TrialParallel
	}
	outs := make([]*TrialOutcome, len(points))
	errs := make([]error, len(points))
	var joined []error
	ordered(len(points), workers, func(i int) bool {
		pt := points[i]
		out, err := r.runPoint(ctx, r.TrialCache, dep, r.trialConfig(dep, pt.users, pt.wr), replicaWorkers)
		if err != nil {
			errs[i] = fmt.Errorf("experiment %s/%s u=%d w=%g: %w", e.Name, d.Topology, pt.users, pt.wr, err)
			return ctx.Err() != nil
		}
		outs[i] = out
		return false
	}, func(i int) {
		out, err := outs[i], errs[i]
		outs[i] = nil // release the outcome and its monitor
		if err == nil && len(joined) == 0 {
			err = r.commit(out)
		}
		if err != nil {
			joined = append(joined, err)
		}
	})
	return errors.Join(joined...)
}

// ordered runs work(i) for every i in [0, n) on up to workers goroutines,
// the caller's among them (alone when workers < 2), and calls commit(i) in
// index order as soon as i and every earlier index have finished. Indices
// start in order, and commit calls never overlap, so commit needs no lock
// of its own. Once a work call returns true, no further index starts; the
// indices already started still finish and commit.
func ordered(n, workers int, work func(i int) (stop bool), commit func(i int)) {
	var (
		mu         sync.Mutex
		stopped    bool // a work call returned true
		next       int  // indices below next have started
		committed  int  // indices below committed have committed
		committing bool // a goroutine is calling commit
		done       = make([]bool, n)
	)
	run := func() {
		mu.Lock()
		for !stopped && next < n {
			i := next
			next++
			mu.Unlock()
			stop := work(i)
			mu.Lock()
			done[i] = true
			stopped = stopped || stop
			if committing {
				continue // the committing goroutine will reach i
			}
			// Commit outside the lock: commit may run the caller's code.
			committing = true
			for committed < next && done[committed] {
				c := committed
				mu.Unlock()
				commit(c)
				mu.Lock()
				committed++
			}
			committing = false
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// trialConfig builds the TrialConfig of one workload point on dep: the
// runner's knobs and shared workload models plus the point's engine and
// fault plan.
func (r *Runner) trialConfig(dep *deployed, users int, writeRatioPct float64) TrialConfig {
	e, prof := dep.e, dep.prof
	topo := dep.d.Topology.String()
	cfg := TrialConfig{
		Users:          users,
		Engine:         r.engineFor(e, users),
		WriteRatioPct:  writeRatioPct,
		TimeScale:      r.TimeScale,
		RootSeed:       r.Seed,
		TraceRate:      r.TraceRate,
		TraceExemplars: r.TraceExemplars,
		SketchRT:       r.SketchRT,
		models:         &r.models,
	}
	if prof.Enabled() {
		cfg.FaultProfile = prof.Name
		cfg.FaultPlan = prof.TrialPlan(r.Seed, e.Name, topo, serverRoles(dep.d),
			users, writeRatioPct, e.Trial.RunSec)
	}
	return cfg
}

// withDeployment generates topology topo of experiment e and runs fn on
// it, deployed on a fresh cluster (see onDeployment); fn's points key the
// trial cache with hash (see specHash). The placement, its node factors
// and its deploy glitches are pure functions of (Seed, experiment,
// topology) and no trial mutates cluster nodes, so every trial fn runs
// measures exactly what it would on a deployment of its own.
func (r *Runner) withDeployment(e *spec.Experiment, topo spec.Topology, hash string, fn func(dep *deployed) error) error {
	d, err := r.gen.GenerateOne(e, topo)
	if err != nil {
		return err
	}
	cl, err := r.newCluster(e)
	if err != nil {
		return err
	}
	return r.onDeployment(e, cl, d, hash, fn)
}

// onDeployment deploys d on cl, runs fn against the placement and tears it
// down. Cluster mutations are serialized; fn runs without the lock, which
// is what makes sweep parallelism safe. Each deployment gets its own
// deployer so fault wiring never races across topologies.
func (r *Runner) onDeployment(e *spec.Experiment, cl *cluster.Cluster, d *mulini.Deployment,
	hash string, fn func(dep *deployed) error) error {

	deployer := deploy.NewDeployer(cl)
	prof := r.profileFor(e)
	r.armDeployer(deployer, prof, e, d)
	r.clusterMu.Lock()
	placement, err := deployer.Deploy(d)
	r.clusterMu.Unlock()
	if err != nil {
		return fmt.Errorf("experiment %s/%s: %w", e.Name, d.Topology, err)
	}
	err = fn(&deployed{e: e, d: d, placement: placement, prof: prof, specHash: hash})
	// Teardown errors are deployment bugs; surface them loudly rather
	// than silently leaking nodes.
	r.clusterMu.Lock()
	uerr := deployer.Undeploy(placement)
	r.clusterMu.Unlock()
	if uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// RunTrialAt deploys topology topo of experiment e, runs a single trial
// at the given workload point, tears down, and returns the outcome. The
// scale-out controller and ad-hoc probes use it.
func (r *Runner) RunTrialAt(e *spec.Experiment, topo spec.Topology, users int, writeRatioPct float64) (*TrialOutcome, error) {
	var out *TrialOutcome
	err := r.withDeployment(e, topo, specHash(e, r.TrialCache), func(dep *deployed) error {
		var err error
		out, err = r.trialOn(r.TrialCache, dep, users, writeRatioPct)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trialOn runs one workload point on dep through cache and commits its
// outcome.
func (r *Runner) trialOn(cache TrialCache, dep *deployed, users int, writeRatioPct float64) (*TrialOutcome, error) {
	out, err := r.runPoint(context.Background(), cache, dep, r.trialConfig(dep, users, writeRatioPct), r.TrialParallel)
	if err != nil {
		return nil, err
	}
	if err := r.commit(out); err != nil {
		return nil, err
	}
	return out, nil
}

// commit records a trial's outcome: the store, the archive, then OnTrial.
func (r *Runner) commit(out *TrialOutcome) error {
	r.results.Put(out.Result)
	if err := r.archive(out); err != nil {
		return err
	}
	if r.OnTrial != nil {
		r.OnTrial(out.Result)
	}
	return nil
}

// archive writes a trial's raw monitor files under ArchiveDir (no-op when
// unset).
func (r *Runner) archive(out *TrialOutcome) error {
	if r.ArchiveDir == "" || out.Monitor == nil {
		return nil
	}
	k := out.Result.Key
	dir := filepath.Join(r.ArchiveDir, k.Experiment, k.Topology,
		fmt.Sprintf("u%d_w%g", k.Users, k.WriteRatioPct))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: archive: %w", err)
	}
	for _, host := range out.Monitor.Hosts() {
		text, ok := out.Monitor.File(host)
		if !ok {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, host+".sar"), []byte(text), 0o644); err != nil {
			return fmt.Errorf("experiment: archive: %w", err)
		}
	}
	return nil
}
