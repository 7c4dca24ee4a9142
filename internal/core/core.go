// Package core implements the paper's primary contribution as a library:
// observation-based performance characterization of n-tier applications.
// A Characterizer takes TBL experiment specifications, generates and
// executes them with the Mulini/deploy/experiment pipeline on the
// simulated testbed, accumulates results and generation-scale accounting,
// and renders the paper's tables and figures.
package core

import (
	"context"
	"fmt"
	"sync"

	"elba/internal/cim"
	"elba/internal/experiment"
	"elba/internal/fault"
	"elba/internal/mulini"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

// Options configure a Characterizer.
type Options struct {
	// TimeScale shrinks trial periods (1.0 = the paper's full protocol).
	TimeScale float64
	// Parallel runs this many deployments of each sweep concurrently
	// (default 1). OnTrial may then fire from multiple goroutines.
	Parallel int
	// TrialParallel runs this many trials within each deployment's
	// workload grid concurrently (default 1). Stored results are
	// bit-identical for every setting; see Runner.TrialParallel.
	TrialParallel int
	// Seed is an optional root seed mixed into every derived trial seed
	// (0 keeps the historical per-experiment derivation). Two runs with
	// the same Seed produce identical results; different Seeds re-run the
	// same experiments under an independent random universe.
	Seed uint64
	// FaultProfile names a built-in fault profile ("none", "light",
	// "heavy") to inject into every experiment, overriding any profile an
	// experiment declares itself. Empty defers to the TBL declarations.
	FaultProfile string
	// TrialRetries re-runs each failed workload point up to this many
	// extra times with fresh attempt-mixed seeds (0 = no retries).
	TrialRetries int
	// TraceRate head-samples this fraction of every trial's measured
	// requests into span traces (0 = tracing off).
	TraceRate float64
	// TraceExemplars is the number of slowest traces each traced trial
	// persists in full (used only when TraceRate > 0).
	TraceExemplars int
	// ScalingEngine overrides every experiment's scaling clause: "des",
	// "fluid", or "auto" (empty = defer to TBL declarations).
	ScalingEngine string
	// ScalingThreshold is the population at which ScalingEngine "auto"
	// switches trials to the fluid approximation.
	ScalingThreshold int
	// SketchRT attaches a mergeable response-time t-digest to every DES
	// trial's stored result, the per-trial summary the streaming folder
	// merges into campaign-level quantiles. Off by default; sketch-free
	// results serialize byte-identically to historical output.
	SketchRT bool
	// TrialCache, when set, memoizes every workload point by its
	// content-addressed trial key, so overlapping sweeps — within one
	// run or across runs sharing the cache — reuse prior results
	// byte-for-byte instead of re-simulating. Nil disables memoization.
	TrialCache experiment.TrialCache
	// Store receives results; a fresh store is created when nil.
	Store *store.Store
	// OnTrial observes each trial result as it lands.
	OnTrial func(store.Result)
}

// Characterizer is the top-level engine.
type Characterizer struct {
	catalog *cim.Catalog
	runner  *experiment.Runner
	results *store.Store

	mu        sync.Mutex         // guards collected (OnTrial may be concurrent) and ran
	collected map[string]int     // experiment set → monitoring bytes
	ran       []*spec.Experiment // every experiment run, in run order (Table 3)
}

// builtinCatalog parses the built-in MOF catalog once per process. Every
// Characterizer shares the result, so nothing may write to it.
var builtinCatalog = sync.OnceValues(cim.LoadCatalog)

// New creates a Characterizer.
func New(opts Options) (*Characterizer, error) {
	cat, err := builtinCatalog()
	if err != nil {
		return nil, err
	}
	st := opts.Store
	if st == nil {
		st = store.New()
	}
	runner, err := experiment.NewRunner(cat, st)
	if err != nil {
		return nil, err
	}
	if opts.TimeScale > 0 {
		runner.TimeScale = opts.TimeScale
	}
	if opts.Parallel > 0 {
		runner.Parallel = opts.Parallel
	}
	if opts.TrialParallel > 0 {
		runner.TrialParallel = opts.TrialParallel
	}
	runner.Seed = opts.Seed
	if opts.FaultProfile != "" {
		prof, ok := fault.ProfileByName(opts.FaultProfile)
		if !ok {
			return nil, fmt.Errorf("core: unknown fault profile %q (have %v)",
				opts.FaultProfile, fault.Profiles())
		}
		runner.FaultProfile = &prof
	}
	runner.TrialRetries = opts.TrialRetries
	runner.TraceRate = opts.TraceRate
	runner.TraceExemplars = opts.TraceExemplars
	runner.ScalingEngine = opts.ScalingEngine
	runner.ScalingThreshold = opts.ScalingThreshold
	runner.SketchRT = opts.SketchRT
	runner.TrialCache = opts.TrialCache
	c := &Characterizer{
		catalog:   cat,
		runner:    runner,
		results:   st,
		collected: map[string]int{},
	}
	runner.OnTrial = func(r store.Result) {
		c.mu.Lock()
		c.collected[r.Key.Experiment] += r.CollectedBytes
		c.mu.Unlock()
		if opts.OnTrial != nil {
			opts.OnTrial(r)
		}
	}
	return c, nil
}

// Catalog exposes the CIM catalog (Tables 1–2). It is the built-in
// catalog, parsed once per process and shared by every Characterizer:
// read it, never write to it.
func (c *Characterizer) Catalog() *cim.Catalog { return c.catalog }

// Results exposes the accumulated result store.
func (c *Characterizer) Results() *store.Store { return c.results }

// Runner exposes the underlying experiment runner for advanced use
// (scale-out control, single trials).
func (c *Characterizer) Runner() *experiment.Runner { return c.runner }

// RunTBL parses a TBL document and runs every experiment it declares.
func (c *Characterizer) RunTBL(src string) error {
	return c.RunTBLContext(context.Background(), src)
}

// RunTBLContext is RunTBL under a cancellation context: experiments run
// in declaration order until the document is done or ctx is cancelled.
func (c *Characterizer) RunTBLContext(ctx context.Context, src string) error {
	doc, err := spec.Parse(src)
	if err != nil {
		return err
	}
	for _, e := range doc.Experiments {
		if err := c.RunExperimentContext(ctx, e); err != nil {
			return err
		}
	}
	return nil
}

// RunExperiment generates, deploys, and sweeps one experiment, recording
// the results and the experiment for Table 3.
func (c *Characterizer) RunExperiment(e *spec.Experiment) error {
	return c.RunExperimentContext(context.Background(), e)
}

// RunExperimentContext is RunExperiment under a cancellation context:
// the sweep stops cleanly between trials when ctx is cancelled, keeping
// every completed trial in the store.
func (c *Characterizer) RunExperimentContext(ctx context.Context, e *spec.Experiment) error {
	c.mu.Lock()
	c.ran = append(c.ran, e)
	c.mu.Unlock()
	return c.runner.RunExperimentContext(ctx, e)
}

// GenerateBundle renders the deployment bundle for one experiment
// topology without running it — the paper's generation-only workflow for
// inspecting scripts (Tables 4–5).
func (c *Characterizer) GenerateBundle(e *spec.Experiment, topo spec.Topology) (*mulini.Deployment, error) {
	return c.runner.Generator().GenerateOne(e, topo)
}

// ScaleOut runs the paper's §V.A observation-driven scale-out loop.
func (c *Characterizer) ScaleOut(e *spec.Experiment, opts experiment.ScaleOutOptions) ([]experiment.Step, error) {
	return c.runner.ScaleOut(e, opts)
}

// ScaleRows assembles Table 3's rows for every experiment run so far, in
// execution order. It renders each run experiment's deployments to count
// them, so only a caller that reads Table 3 pays for it. A set run more
// than once shows its last run that generates; a set none of whose runs
// generates is left out.
func (c *Characterizer) ScaleRows(figureOf func(set string) string) []report.ScaleRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	scales := map[string]mulini.ScaleReport{}
	var order []string
	for _, e := range c.ran {
		deployments, err := c.runner.Generator().Generate(e)
		if err != nil {
			continue
		}
		if _, seen := scales[e.Name]; !seen {
			order = append(order, e.Name)
		}
		scales[e.Name] = mulini.Scale(deployments)
	}
	var rows []report.ScaleRow
	for _, name := range order {
		fig := ""
		if figureOf != nil {
			fig = figureOf(name)
		}
		rows = append(rows, report.ScaleRow{
			Set:            name,
			Figure:         fig,
			Scale:          scales[name],
			CollectedBytes: c.collected[name],
		})
	}
	return rows
}

// Capacity answers the paper's §V.C capacity-planning question from
// observed data: the smallest configuration (by machine count) of
// experiment set whose observed mean response time at the given workload
// meets the SLO.
func (c *Characterizer) Capacity(set string, users int, writeRatioPct, sloMS float64) (spec.Topology, store.Result, error) {
	best := spec.Topology{}
	var bestRes store.Result
	found := false
	for _, topo := range c.results.Topologies(set) {
		r, ok := c.results.Get(store.Key{
			Experiment: set, Topology: topo,
			Users: users, WriteRatioPct: writeRatioPct,
		})
		if !ok || !r.Completed || r.AvgRTms > sloMS {
			continue
		}
		t, err := spec.ParseTopology(topo)
		if err != nil {
			continue
		}
		if !found || t.Nodes() < best.Nodes() {
			best, bestRes, found = t, r, true
		}
	}
	if !found {
		return spec.Topology{}, store.Result{}, fmt.Errorf(
			"core: no observed configuration meets %g ms at %d users (w=%g%%)", sloMS, users, writeRatioPct)
	}
	return best, bestRes, nil
}
