package elba

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTBL is a representative no-demands sweep: the stored output for
// specs like this must stay byte-identical as the store grows new
// (omitempty) per-resource fields. Two topologies and a small grid keep
// the run cheap while covering the serialization paths (completed and
// per-tier CPU maps, canonical ordering across topologies).
const goldenTBL = `experiment "golden-byteident" {
	benchmark rubis; platform emulab; appserver jonas;
	topologies 1-1-1, 1-2-1;
	workload { users 100 to 300 step 100; writeratio 10; }
	trial { warmup 60s; run 300s; cooldown 60s; }
	monitor { interval 5s; metrics cpu, memory, network, disk; }
}`

// runGoldenSweep executes the golden spec deterministically. TrialParallel
// is deliberately > 1: serialized output must not depend on scheduling.
func runGoldenSweep(t *testing.T) *Store {
	t.Helper()
	c, err := New(Options{TimeScale: 0.05, TrialParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTBL(goldenTBL); err != nil {
		t.Fatal(err)
	}
	return c.Results()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden output.\nStored output for specs without disk/net demands must stay byte-identical.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestStoreGoldenJSON pins the JSON serialization of a no-demands sweep.
func TestStoreGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	st := runGoldenSweep(t)
	data, err := st.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "store.json.golden"), data)
}

// goldenFluidTBL pins the fluid engine's stored bytes, which the DES
// goldens above never reach. The sweep runs sub-knee windows on the
// service-only classes, deep-overload windows with three waiting tiers,
// RAIDb-1 write broadcast over two replicas, and timeout losses (most of
// its points fail on refusals and timeouts). The windowed spec scales the
// database mid-run, so the solver rebuilds its class distributions in
// place.
const goldenFluidTBL = `experiment "golden-fluid-sweep" {
	benchmark rubbos; platform emulab; appserver tomcat; mix submission;
	topologies 1-1-1, 1-2-2;
	workload { users 500 to 20500 step 5000; writeratio 15; timeout 2s; }
	scaling { engine fluid; }
}
experiment "golden-fluid-scale-db" {
	benchmark rubbos; platform emulab; appserver tomcat; mix submission;
	topology { web 1; app 1; db 1; }
	workload { users 300 + 2700*ramp((t - 60s)/60s); writeratio 15; }
	trial { warmup 30s; run 240s; cooldown 30s; }
	slo { assert p90(rt) < 2s; }
	policies { scale db by 1 when util(db, cpu) > 0.5 cooldown 30s max 2; }
	scaling { engine fluid; }
}`

// TestStoreGoldenFluidJSON pins the JSON serialization of fluid-engine
// results: quantiles, timeout fractions, per-class means, SLO windows and
// scale events.
func TestStoreGoldenFluidJSON(t *testing.T) {
	c, err := New(Options{TimeScale: 0.1, TrialParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTBL(goldenFluidTBL); err != nil {
		t.Fatal(err)
	}
	data, err := c.Results().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "store_fluid.json.golden"), data)
}

// goldenDESWindowsTBL pins the DES engine's observation-window path,
// which the sweep golden above never enters: a population that rises and
// falls at window boundaries, an SLO assert, a when-guarded error burst
// armed at a boundary, a clock-scheduled slowdown, scale-out and
// scale-in policies, and a disk demand whose busy time feeds util(db,
// disk).
const goldenDESWindowsTBL = `experiment "golden-des-windows" {
	benchmark rubis; platform emulab; appserver jonas;
	topology { web 1; app 1; db 1; }
	workload { users 60 + 240*ramp((t - 20s)/60s) - 220*ramp((t - 150s)/40s); writeratio 15; }
	trial { warmup 30s; run 240s; cooldown 30s; }
	monitor { interval 5s; metrics cpu, memory, network, disk; }
	demands { db { disk 6ms; } }
	slo { assert p90(rt) < 150ms; }
	faults {
		client errorburst 0.2 at 60s for 30s when util(app, cpu) > 0.6;
		JONAS1 slowdown 0.5 at 110s for 20s;
	}
	policies {
		scale app by 1 when util(app, cpu) > 0.7 cooldown 20s max 3;
		scale app in by 1 when util(app, cpu) < 0.3 cooldown 20s;
	}
}`

// TestStoreGoldenDESWindowsJSON pins the JSON serialization of a DES
// trial driven window by window, and checks that every windowed
// mechanism actually fired, so the golden cannot silently pin a trial
// where one of them is inert.
func TestStoreGoldenDESWindowsJSON(t *testing.T) {
	c, err := New(Options{TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunTBL(goldenDESWindowsTBL); err != nil {
		t.Fatal(err)
	}
	rs := c.Results().Filter(func(Result) bool { return true })
	if len(rs) != 1 {
		t.Fatalf("got %d results, want 1", len(rs))
	}
	r := rs[0]
	var out, in bool
	for _, ev := range r.ScaleEvents {
		out = out || ev.To > ev.From
		in = in || ev.To < ev.From
	}
	if !out || !in {
		t.Errorf("scale events %v: want firings in both directions", r.ScaleEvents)
	}
	if r.SLOViolations == 0 {
		t.Errorf("no SLO violation in %d windows", r.SLOWindows)
	}
	if r.InjectedErrors == 0 {
		t.Error("the when-guarded error burst injected no errors")
	}
	data, err := c.Results().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "store_des_windows.json.golden"), data)
}

// TestStoreGoldenCSV pins the CSV serialization of the same sweep.
func TestStoreGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	st := runGoldenSweep(t)
	checkGolden(t, filepath.Join("testdata", "store.csv.golden"), []byte(st.CSV()))
}
