package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"elba/internal/fault"
	"elba/internal/spec"
)

// countingProbe wraps a synthetic acceptance predicate, recording probe
// order for convergence assertions.
func countingProbe(ok func(users int) bool) (func(int) (bool, error), *[]int) {
	var probed []int
	return func(users int) (bool, error) {
		probed = append(probed, users)
		return ok(users), nil
	}, &probed
}

func TestKneeBisectConvergesOnMonotoneCurve(t *testing.T) {
	// A crisp knee: populations up to 737 meet the SLO, everything above
	// violates it. The search must bracket the knee to the resolution.
	const knee = 737
	for _, resolution := range []int{1, 10, 100} {
		probe, probed := countingProbe(func(u int) bool { return u <= knee })
		users, violation, err := kneeBisect(probe, 1, 2048, resolution)
		if err != nil {
			t.Fatal(err)
		}
		if users > knee || violation <= knee {
			t.Fatalf("resolution=%d: bracket [%d, %d] does not straddle the knee %d",
				resolution, users, violation, knee)
		}
		if violation-users > resolution {
			t.Fatalf("resolution=%d: bracket width %d exceeds resolution",
				resolution, violation-users)
		}
		// O(log n) probes: bracket + one halving per iteration.
		if n := len(*probed); n > 14 {
			t.Fatalf("resolution=%d: %d probes for a 2048-wide bracket, want <= 14", resolution, n)
		}
	}
}

func TestKneeBisectExactKneeAtResolutionOne(t *testing.T) {
	const knee = 512
	probe, _ := countingProbe(func(u int) bool { return u <= knee })
	users, violation, err := kneeBisect(probe, 1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if users != knee || violation != knee+1 {
		t.Fatalf("resolution 1 should pin the knee exactly: got [%d, %d], want [%d, %d]",
			users, violation, knee, knee+1)
	}
}

func TestKneeBisectNonMonotoneStillBrackets(t *testing.T) {
	// Saturation noise: a dip at 600–650 violates the SLO even though
	// higher populations up to the real knee at 900 pass again. Whatever
	// boundary the probes land on, the invariant holds: the returned
	// bracket has an accepted left edge, a violating right edge, and is no
	// wider than the resolution.
	ok := func(u int) bool {
		if u >= 600 && u <= 650 {
			return false
		}
		return u <= 900
	}
	probe, _ := countingProbe(ok)
	users, violation, err := kneeBisect(probe, 1, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok(users) {
		t.Fatalf("returned users=%d violates the predicate", users)
	}
	if ok(violation) {
		t.Fatalf("returned violation=%d meets the predicate", violation)
	}
	if violation-users > 5 {
		t.Fatalf("bracket [%d, %d] wider than resolution", users, violation)
	}
}

func TestKneeBisectNeverViolated(t *testing.T) {
	probe, probed := countingProbe(func(int) bool { return true })
	users, violation, err := kneeBisect(probe, 100, 1500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if users != 1500 || violation != 0 {
		t.Fatalf("unviolated SLO should report hi with no violation: got (%d, %d)", users, violation)
	}
	if len(*probed) != 2 {
		t.Fatalf("unviolated search should stop after bracketing, probed %v", *probed)
	}
}

func TestKneeBisectAlwaysViolated(t *testing.T) {
	probe, probed := countingProbe(func(int) bool { return false })
	_, violation, err := kneeBisect(probe, 100, 1500, 50)
	if !errors.Is(err, errKneeLowerBound) {
		t.Fatalf("always-violated SLO should fail on the lower bound, got %v", err)
	}
	if violation != 100 {
		t.Fatalf("violation = %d, want the lower bound 100", violation)
	}
	if len(*probed) != 1 {
		t.Fatalf("lower-bound violation should stop immediately, probed %v", *probed)
	}
}

func TestKneeBisectValidatesBounds(t *testing.T) {
	probe, probed := countingProbe(func(int) bool { return true })
	for _, c := range [][2]int{{0, 100}, {100, 100}, {100, 50}} {
		if _, _, err := kneeBisect(probe, c[0], c[1], 1); err == nil {
			t.Fatalf("bounds lo=%d hi=%d should be rejected", c[0], c[1])
		}
	}
	if len(*probed) != 0 {
		t.Fatalf("invalid bounds must not spend probes, probed %v", *probed)
	}
}

func TestKneeBisectResolutionClamped(t *testing.T) {
	probe, _ := countingProbe(func(u int) bool { return u <= 10 })
	users, violation, err := kneeBisect(probe, 1, 100, -7)
	if err != nil {
		t.Fatal(err)
	}
	if users != 10 || violation != 11 {
		t.Fatalf("non-positive resolution should clamp to 1: got [%d, %d]", users, violation)
	}
}

// TestKneeSearchTrialBudgetPerSweep pins every sweep's trial count
// exactly and checks that the bisection, with no cache in front of it,
// never measures a population twice: a collapsed bracket (hi - lo <=
// resolution) ends the search on its two anchors without probing them
// again.
func TestKneeSearchTrialBudgetPerSweep(t *testing.T) {
	const knee = 737
	sweeps := []struct {
		name                string
		lo, hi, res         int
		ok                  func(int) bool
		trials              int
		first, last         int
		wantUsers, wantViol int
	}{
		// Interval already collapsed: the search is just the two anchors.
		{"collapsed", 100, 200, 100, func(u int) bool { return u <= 150 },
			2, 100, 200, 100, 200},
		{"adjacent", 500, 501, 1, func(u int) bool { return u <= 500 },
			2, 500, 501, 500, 501},
		{"resolution wider than bracket", 700, 760, 1000, func(u int) bool { return u <= knee },
			2, 700, 760, 700, 760},
		// Full bisections: anchors + one halving per iteration, exact.
		{"res1", 1, 2048, 1, func(u int) bool { return u <= knee },
			13, 1, 2048, knee, knee + 1},
		{"res10", 1, 2048, 10, func(u int) bool { return u <= knee },
			10, 1, 2048, 736, 744},
		{"res100", 1, 2048, 100, func(u int) bool { return u <= knee },
			7, 1, 2048, 704, 768},
		{"unviolated", 100, 1500, 50, func(int) bool { return true },
			2, 100, 1500, 1500, 0},
	}
	for _, s := range sweeps {
		t.Run(s.name, func(t *testing.T) {
			probe, probed := countingProbe(s.ok)
			users, violation, err := kneeBisect(probe, s.lo, s.hi, s.res)
			if err != nil {
				t.Fatal(err)
			}
			if users != s.wantUsers || violation != s.wantViol {
				t.Fatalf("bracket (%d, %d), want (%d, %d)", users, violation, s.wantUsers, s.wantViol)
			}
			if n := len(*probed); n != s.trials {
				t.Fatalf("sweep spent %d trials, want exactly %d: %v", n, s.trials, *probed)
			}
			unique := map[int]bool{}
			for _, u := range *probed {
				if unique[u] {
					t.Fatalf("population %d trialed twice: %v", u, *probed)
				}
				unique[u] = true
			}
			if (*probed)[0] != s.first || (*probed)[1] != s.last {
				t.Fatalf("anchors should be probed first: %v", *probed)
			}
		})
	}
}

func TestKneeBisectPropagatesProbeErrors(t *testing.T) {
	boom := fmt.Errorf("testbed gone")
	calls := 0
	probe := func(int) (bool, error) {
		calls++
		if calls == 3 {
			return false, boom
		}
		return calls == 1, nil // lo passes, hi fails, then the error
	}
	if _, _, err := kneeBisect(probe, 1, 1000, 1); !errors.Is(err, boom) {
		t.Fatalf("mid-search probe error lost: %v", err)
	}
}

// referenceKneeSearch is KneeSearch with a fresh deployment per probe:
// every probe goes through RunTrialAt, which generates, deploys and tears
// down the topology for its one trial.
func referenceKneeSearch(r *Runner, e *spec.Experiment, topo spec.Topology,
	writeRatioPct, sloMS float64, lo, hi, resolution int) (KneeSearchResult, error) {

	r.TrialCache = newMapTrialCache()
	res := KneeSearchResult{}
	probe := func(users int) (bool, error) {
		out, err := r.RunTrialAt(e, topo, users, writeRatioPct)
		if err != nil {
			return false, err
		}
		if !out.FromCache {
			res.Trials++
			res.Probes = append(res.Probes, KneeProbe{
				Users: users, AvgRTms: out.Result.AvgRTms, Completed: out.Result.Completed,
			})
		}
		return out.Result.Completed && out.Result.AvgRTms <= sloMS, nil
	}
	users, violation, err := kneeBisect(probe, lo, hi, resolution)
	if errors.Is(err, errKneeLowerBound) {
		return res, fmt.Errorf("experiment: lower bound %d users already violates the %g ms SLO", lo, sloMS)
	}
	if err != nil {
		return res, err
	}
	res.Users, res.ViolationUsers = users, violation
	return res, nil
}

// readTree maps every file under dir to its contents.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKneeSearchMatchesPerProbeDeployment checks that a search running
// every probe on one deployment returns what a search deploying afresh
// for each probe returns — the bracket, the trial count and every probe
// — and leaves byte-identical results JSON and monitor archives. The DES
// case runs the light fault profile under a seed whose placement has a
// slowed app server and deploy-step retries, so both reach every probe.
func TestKneeSearchMatchesPerProbeDeployment(t *testing.T) {
	rubbos, err := os.ReadFile(filepath.Join("..", "..", "specs", "rubbos-baseline.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(string(rubbos))
	if err != nil {
		t.Fatal(err)
	}
	faulted := rubisExperiment(t, `workload { users 100; writeratio 15; } faults { profile light; }`)
	const seed = 22
	one := spec.Topology{Web: 1, App: 1, DB: 1}
	cases := []struct {
		name       string
		e          *spec.Experiment
		engine     string
		wr, slo    float64
		lo, hi, by int
		wantErr    bool
	}{
		{"des light faults", faulted, "", 15, 1000, 50, 800, 50, false},
		{"fluid", doc.Experiments[0], EngineFluid, 0, 1000, 500, 1_000_000, 1000, false},
		{"violated lower bound", faulted, "", 15, 100, 600, 900, 100, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runners := [2]*Runner{testRunner(t), testRunner(t)}
			for _, r := range runners {
				r.Seed = seed
				r.ScalingEngine = c.engine
				r.ArchiveDir = t.TempDir()
			}
			got, gotErr := runners[0].KneeSearch(c.e, one, c.wr, c.slo, c.lo, c.hi, c.by)
			want, wantErr := referenceKneeSearch(runners[1], c.e, one, c.wr, c.slo, c.lo, c.hi, c.by)
			if (gotErr != nil) != c.wantErr || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, per-probe deployment gives %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("search %+v, per-probe deployment gives %+v", got, want)
			}
			if got.Trials == 0 {
				t.Fatal("search ran no trials")
			}
			var js [2][]byte
			for i, r := range runners {
				if js[i], err = r.results.MarshalJSON(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(js[0], js[1]) {
				t.Fatalf("results JSON differs from per-probe deployment:\n%s\n%s", js[0], js[1])
			}
			if a, b := readTree(t, runners[0].ArchiveDir), readTree(t, runners[1].ArchiveDir); len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Fatalf("monitor archives differ: %d files, per-probe deployment %d", len(a), len(b))
			}
			if c.e != faulted {
				return
			}
			prof, _ := fault.ProfileByName("light")
			d, err := runners[0].gen.GenerateOne(c.e, one)
			if err != nil {
				t.Fatal(err)
			}
			if len(prof.NodeFactors(seed, c.e.Name, one.String(), serverRoles(d))) == 0 {
				t.Fatal("seed no longer slows a node; pick another")
			}
			for _, res := range runners[0].results.All() {
				if res.DeployRetries == 0 {
					t.Fatalf("%v: no deploy retries; the seed no longer glitches the deployment", res.Key)
				}
			}
		})
	}
}
