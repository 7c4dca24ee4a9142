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

// TestStoreGoldenCSV pins the CSV serialization of the same sweep.
func TestStoreGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	st := runGoldenSweep(t)
	checkGolden(t, filepath.Join("testdata", "store.csv.golden"), []byte(st.CSV()))
}
