package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elba/internal/spec"
	"elba/internal/store"
)

// deterministicGrid is a small multi-topology, multi-point sweep used by
// the reproducibility properties below. Small populations keep each trial
// cheap; four topologies × four grid points give the worker pool real
// scheduling freedom.
const deterministicGrid = `
	topologies 1-1-1, 1-2-1, 1-2-2, 1-3-1;
	workload { users 50 to 100 step 50; writeratio 5 to 15 step 10; }`

// runGrid executes the grid with the given trial parallelism and returns
// the store's canonical serializations.
func runGrid(t *testing.T, trialParallel int, mutate func(*Runner)) (csv string, jsonText string, st *store.Store) {
	t.Helper()
	r := testRunner(t)
	r.TrialParallel = trialParallel
	if mutate != nil {
		mutate(r)
	}
	if err := r.RunExperiment(rubisExperiment(t, deterministicGrid)); err != nil {
		t.Fatal(err)
	}
	data, err := r.Store().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return r.Store().CSV(), string(data), r.Store()
}

// TestTrialParallelDeterministicAcrossWorkers is the tentpole determinism
// property: the same experiment produces byte-identical stored results for
// every worker count, because each trial's random stream is derived purely
// from its coordinates and results commit in grid order.
func TestTrialParallelDeterministicAcrossWorkers(t *testing.T) {
	baseCSV, baseJSON, _ := runGrid(t, 1, nil)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if workers < 2 {
			workers = 2
		}
		csv, jsonText, _ := runGrid(t, workers, nil)
		if csv != baseCSV {
			t.Fatalf("workers=%d: CSV diverged from sequential run:\n--- seq ---\n%s\n--- par ---\n%s",
				workers, baseCSV, csv)
		}
		if jsonText != baseJSON {
			t.Fatalf("workers=%d: JSON diverged from sequential run", workers)
		}
	}
}

// TestSharedModelsDeterministicAcrossWorkers runs a DES and a fluid sweep
// whose four trial workers share the runner's workload models and
// requires the bytes of the sequential run; under -race it also checks
// that concurrent trials may share one Profile. The runner must have
// built one model per write ratio, not one per trial.
func TestSharedModelsDeterministicAcrossWorkers(t *testing.T) {
	for _, engine := range []string{EngineDES, EngineFluid} {
		t.Run(engine, func(t *testing.T) {
			_, base, _ := runGrid(t, 1, func(r *Runner) { r.ScalingEngine = engine })
			var shared *Runner
			_, got, _ := runGrid(t, 4, func(r *Runner) { r.ScalingEngine = engine; shared = r })
			if got != base {
				t.Fatalf("4 workers diverged from the sequential run:\n--- seq ---\n%s\n--- par ---\n%s", base, got)
			}
			if n := len(shared.models.m); n != 2 {
				t.Fatalf("runner built %d workload models for the grid's 2 write ratios", n)
			}
		})
	}
}

// TestTrialParallelWithDeploymentParallel layers both parallelism axes and
// still demands byte-identical serialized results.
func TestTrialParallelWithDeploymentParallel(t *testing.T) {
	baseCSV, baseJSON, _ := runGrid(t, 1, nil)
	csv, jsonText, _ := runGrid(t, 3, func(r *Runner) { r.Parallel = 2 })
	if csv != baseCSV || jsonText != baseJSON {
		t.Fatalf("deployment+trial parallel run diverged from sequential serialization")
	}
}

// TestDeploymentOrderPermutationMetamorphic is the metamorphic property:
// permuting the declared topology order must not change any per-trial
// result nor the canonical serialization, sequentially or in parallel.
func TestDeploymentOrderPermutationMetamorphic(t *testing.T) {
	permuted := `
		topologies 1-3-1, 1-2-2, 1-1-1, 1-2-1;
		workload { users 50 to 100 step 50; writeratio 5 to 15 step 10; }`
	base := testRunner(t)
	if err := base.RunExperiment(rubisExperiment(t, deterministicGrid)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		perm := testRunner(t)
		perm.TrialParallel = workers
		if err := perm.RunExperiment(rubisExperiment(t, permuted)); err != nil {
			t.Fatal(err)
		}
		if perm.Store().Len() != base.Store().Len() {
			t.Fatalf("workers=%d: result counts differ: %d vs %d",
				workers, perm.Store().Len(), base.Store().Len())
		}
		for _, want := range base.Store().All() {
			got, ok := perm.Store().Get(want.Key)
			if !ok {
				t.Fatalf("workers=%d: permuted run missing %s", workers, want.Key)
			}
			if got.AvgRTms != want.AvgRTms || got.Requests != want.Requests ||
				got.Throughput != want.Throughput || got.P99ms != want.P99ms {
				t.Fatalf("workers=%d: permuted topology order changed %s: %+v vs %+v",
					workers, want.Key, got, want)
			}
		}
		if perm.Store().CSV() != base.Store().CSV() {
			t.Fatalf("workers=%d: canonical CSV differs under topology permutation", workers)
		}
	}
}

// TestReplicatedTrialParallelDeterministic checks the replicate.go half of
// the tentpole: replicated trials aggregate bit-identically for any worker
// count because replica seeds derive from the replica index alone.
func TestReplicatedTrialParallelDeterministic(t *testing.T) {
	run := func(workers int) store.Result {
		r := testRunner(t)
		r.TrialParallel = workers
		e := rubisExperiment(t, `
			workload { users 150; writeratio 15; }
			repeat 4;`)
		out, err := r.RunTrialAt(e, spec.Topology{Web: 1, App: 2, DB: 1}, 150, 15)
		if err != nil {
			t.Fatal(err)
		}
		return out.Result
	}
	base := run(1)
	if base.Replicas != 4 {
		t.Fatalf("replicas = %d", base.Replicas)
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !resultEqual(got, base) {
			t.Fatalf("workers=%d: replicated aggregate diverged:\n%+v\nvs\n%+v", workers, got, base)
		}
	}
}

// resultEqual compares two results field-by-field including maps (Result
// contains maps, so == is not available).
func resultEqual(a, b store.Result) bool {
	if a.Key != b.Key || a.Completed != b.Completed || a.FailReason != b.FailReason ||
		a.AvgRTms != b.AvgRTms || a.P50ms != b.P50ms || a.P90ms != b.P90ms ||
		a.P99ms != b.P99ms || a.MaxRTms != b.MaxRTms || a.Throughput != b.Throughput ||
		a.Requests != b.Requests || a.Errors != b.Errors ||
		a.CollectedBytes != b.CollectedBytes || a.RunSeconds != b.RunSeconds ||
		a.Replicas != b.Replicas || a.AvgRTCI95ms != b.AvgRTCI95ms ||
		a.ThroughputCI95 != b.ThroughputCI95 {
		return false
	}
	eqMap := func(x, y map[string]float64) bool {
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if yv, ok := y[k]; !ok || yv != v {
				return false
			}
		}
		return true
	}
	return eqMap(a.TierCPU, b.TierCPU) && eqMap(a.HostCPU, b.HostCPU) &&
		eqMap(a.PerInteraction, b.PerInteraction)
}

// TestRootSeedReproducibleAndIndependent checks Runner.Seed: the same
// root seed reproduces results exactly; a different root seed re-runs the
// experiment under an independent random universe; zero preserves the
// historical derivation.
func TestRootSeedReproducibleAndIndependent(t *testing.T) {
	run := func(seed uint64) string {
		csv, _, _ := runGrid(t, 2, func(r *Runner) { r.Seed = seed })
		return csv
	}
	legacy := run(0)
	a1, a2 := run(12345), run(12345)
	if a1 != a2 {
		t.Fatalf("same root seed diverged")
	}
	if b := run(99999); b == a1 {
		t.Fatalf("different root seeds produced identical sweeps")
	}
	baseCSV, _, _ := runGrid(t, 1, nil)
	if legacy != baseCSV {
		t.Fatalf("zero root seed changed the historical derivation")
	}
}

// TestParallelWorkerErrorsAllCollected is the error-collection regression
// test: when several concurrent deployments fail, every failure must
// survive into the joined error instead of all but one being dropped (the
// old single-slot channel bug).
func TestParallelWorkerErrorsAllCollected(t *testing.T) {
	r := testRunner(t)
	r.Parallel = 2
	// A fault on a role that exists in neither topology makes every
	// deployment's first trial return an error.
	e := rubisExperiment(t, `
		topologies 1-1-1, 1-2-1;
		workload { users 50; writeratio 15; }
		faults { JONAS9 at 10s for 10s; }`)
	err := r.RunExperiment(e)
	if err == nil {
		t.Fatal("faulty experiment reported success")
	}
	for _, topo := range []string{"1-1-1", "1-2-1"} {
		if !strings.Contains(err.Error(), topo) {
			t.Fatalf("joined error lost the failure from topology %s: %v", topo, err)
		}
	}
}

// TestTrialParallelErrorsAllCollected exercises the same property inside
// one deployment's grid: multiple failing workload points all appear in
// the joined error.
func TestTrialParallelErrorsAllCollected(t *testing.T) {
	r := testRunner(t)
	r.TrialParallel = 4
	e := rubisExperiment(t, `
		workload { users 50 to 200 step 50; writeratio 15; }
		faults { JONAS9 at 10s for 10s; }`)
	err := r.RunExperiment(e)
	if err == nil {
		t.Fatal("faulty experiment reported success")
	}
	// All four points start before any error propagates (4 workers), so
	// at least two must be present in the joined error.
	found := 0
	for _, point := range []string{"u=50", "u=100", "u=150", "u=200"} {
		if strings.Contains(err.Error(), point) {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("joined error retained %d failing grid points, want >= 2: %v", found, err)
	}
}

// TestGridAbortStoresPrefixOnly pins the abort semantics with
// KeepGoingOnFailure off: whatever the worker count, the store holds
// exactly the grid-order prefix a sequential sweep would have stored.
func TestGridAbortStoresPrefixOnly(t *testing.T) {
	run := func(workers int) *store.Store {
		r := testRunner(t)
		r.TrialParallel = workers
		r.KeepGoingOnFailure = false
		e := rubisExperiment(t, `
			workload { users 600 to 900 step 100; writeratio 15; }`)
		if err := r.RunExperiment(e); err == nil {
			t.Fatal("overloaded sweep with KeepGoingOnFailure=false reported success")
		}
		return r.Store()
	}
	seq := run(1)
	par := run(4)
	if seq.CSV() != par.CSV() {
		t.Fatalf("abort prefix differs between worker counts:\n--- seq ---\n%s\n--- par ---\n%s",
			seq.CSV(), par.CSV())
	}
}

// holdCache is a TrialCache that holds one workload point until release
// is closed, for at most 3 s: a runner that commits nothing while the
// point is held then fails rather than hangs.
type holdCache struct {
	TrialCache
	users    int
	release  chan struct{}
	timedOut atomic.Bool
}

func (c *holdCache) Do(k TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	if k.Users == c.users {
		select {
		case <-c.release:
		case <-time.After(3 * time.Second):
			c.timedOut.Store(true)
		}
	}
	return c.TrialCache.Do(k, compute)
}

// TestGridCommitsStreamWithTheGrid holds a parallel grid's last point
// until OnTrial has fired: the points before it must commit while it
// waits, in grid order. A runner that commits only once the whole grid
// has finished times out here.
func TestGridCommitsStreamWithTheGrid(t *testing.T) {
	for _, workers := range []int{2, 4} {
		r := testRunner(t)
		r.TrialParallel = workers
		hold := &holdCache{TrialCache: newEphemeralTrialCache(), users: 400, release: make(chan struct{})}
		r.TrialCache = hold
		var release sync.Once
		var seen []int
		r.OnTrial = func(res store.Result) {
			seen = append(seen, res.Key.Users)
			release.Do(func() { close(hold.release) })
		}
		if err := r.RunExperiment(rubisExperiment(t, `workload { users 50 to 400 step 50; writeratio 15; }`)); err != nil {
			t.Fatal(err)
		}
		if hold.timedOut.Load() {
			t.Errorf("workers=%d: nothing committed while the 400-user point waited", workers)
		}
		if want := []int{50, 100, 150, 200, 250, 300, 350, 400}; !slices.Equal(seen, want) {
			t.Errorf("workers=%d: OnTrial saw users %v, want %v", workers, seen, want)
		}
	}
}

// TestJoinedErrorSameAtEveryWorkerCount: when every point of a sweep
// fails, the sweep still runs all of them and reports each, in grid
// order, with the same joined error at every worker count.
func TestJoinedErrorSameAtEveryWorkerCount(t *testing.T) {
	var want string
	for _, w := range []struct{ parallel, trial int }{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 4}} {
		r := testRunner(t)
		r.Parallel, r.TrialParallel = w.parallel, w.trial
		err := r.RunExperiment(rubisExperiment(t, `
			topologies 1-1-1, 1-2-1;
			workload { users 50 to 200 step 50; writeratio 15; }
			faults { JONAS9 at 10s for 10s; }`))
		if err == nil {
			t.Fatalf("parallel=%d trial=%d: faulty experiment reported success", w.parallel, w.trial)
		}
		if want == "" {
			want = err.Error()
			rest := want
			for _, topo := range []string{"1-1-1", "1-2-1"} {
				for users := 50; users <= 200; users += 50 {
					point := fmt.Sprintf("rubis-it/%s u=%d w=15:", topo, users)
					i := strings.Index(rest, point)
					if i < 0 {
						t.Fatalf("joined error lacks %s in grid order: %v", point, err)
					}
					rest = rest[i+len(point):]
				}
			}
			continue
		}
		if err.Error() != want {
			t.Fatalf("parallel=%d trial=%d: joined error differs from parallel=1 trial=1:\n%v\n--- want ---\n%s",
				w.parallel, w.trial, err, want)
		}
	}
}

// cancelCache cancels the sweep's context ctx while it computes one
// workload point, which itself finishes cleanly. Later points wait for
// the cancellation (for at most 3 s) before computing, so it lands before
// any of them starts at every worker count.
type cancelCache struct {
	TrialCache
	ctx    context.Context
	cancel context.CancelFunc
	users  int
}

func (c cancelCache) Do(k TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	switch {
	case k.Users == c.users:
		return c.TrialCache.Do(k, func() (store.Result, error) {
			defer c.cancel()
			return compute()
		})
	case k.Users > c.users:
		select {
		case <-c.ctx.Done():
		case <-time.After(3 * time.Second):
		}
	}
	return c.TrialCache.Do(k, compute)
}

// TestRunnerCancellationStopsTheGrid cancels a sweep while it computes its
// third point. No point starts after that; the in-flight ones commit; the
// sweep reports the cancellation once per worker at most; and the store
// keeps a strict prefix of the grid.
func TestRunnerCancellationStopsTheGrid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := testRunner(t)
		r.TrialParallel = workers
		ctx, cancel := context.WithCancel(context.Background())
		r.TrialCache = cancelCache{TrialCache: newEphemeralTrialCache(), ctx: ctx, cancel: cancel, users: 150}
		err := r.RunExperimentContext(ctx, rubisExperiment(t, `workload { users 50 to 800 step 50; writeratio 15; }`))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled sweep returned %v", workers, err)
		}
		if n := strings.Count(err.Error(), context.Canceled.Error()); n > workers {
			t.Fatalf("workers=%d: the cancellation is reported %d times: %v", workers, n, err)
		}
		stored := r.Store().All()
		if len(stored) >= 16 {
			t.Fatalf("workers=%d: cancelled sweep stored all %d points", workers, len(stored))
		}
		for i, res := range stored {
			if res.Key.Users != 50*(i+1) {
				t.Fatalf("workers=%d: stored result %d is u=%d, not a grid prefix", workers, i, res.Key.Users)
			}
		}
		// One worker runs the points in order, so it must have committed
		// exactly the 150-user point it was computing, and nothing later.
		if workers == 1 && len(stored) != 3 {
			t.Fatalf("workers=1: stored %d points, want 3 (through the in-flight 150-user point)", len(stored))
		}
	}
}
