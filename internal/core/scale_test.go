package core

import (
	"reflect"
	"sync"
	"testing"

	"elba/internal/cim"
	"elba/internal/mulini"
	"elba/internal/spec"
)

// TestScaleRowsRenderEachRunExperiment pins Table 3 rendered when read:
// its rows equal mulini.Scale over Generate for each experiment run, in
// run order, and leave out an experiment whose generation fails.
func TestScaleRowsRenderEachRunExperiment(t *testing.T) {
	c := fastCharacterizer(t)
	doc, err := spec.Parse(`
experiment "first" {
	benchmark rubis; platform emulab; appserver jonas;
	topologies 1-1-1, 1-2-2;
	workload { users 100; writeratio 15; }
}
experiment "too-big" {
	benchmark rubis; platform warp; appserver jonas;
	topology { web 1; app 60; db 1; }
	workload { users 100; }
}
experiment "second" {
	benchmark rubbos; platform emulab;
	topology { web 1; app 1; db 2; }
	workload { users 200; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Runner().Generator()
	var want []mulini.ScaleReport
	for _, e := range doc.Experiments {
		runErr := c.RunExperiment(e)
		ds, genErr := gen.Generate(e)
		if (genErr != nil) != (e.Name == "too-big") || (runErr != nil) != (genErr != nil) {
			t.Fatalf("%s: run error %v, generation error %v", e.Name, runErr, genErr)
		}
		if genErr == nil {
			want = append(want, mulini.Scale(e, ds))
		}
	}
	var got []mulini.ScaleReport
	for _, row := range c.ScaleRows(FigureOf) {
		if row.Set != row.Scale.Experiment || row.CollectedBytes == 0 {
			t.Fatalf("row %+v", row)
		}
		got = append(got, row.Scale)
	}
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("scale rows = %+v\nwant %+v", got, want)
	}
}

// TestCharacterizersShareReadOnlyCatalog: every characterizer holds the
// one built-in catalog, and running campaigns on two of them at once,
// one with faults that degrade nodes and one whose policies clone node
// pools for autoscaling, leaves it equal to a freshly parsed catalog.
func TestCharacterizersShareReadOnlyCatalog(t *testing.T) {
	plain := fastCharacterizer(t)
	faulty, err := New(Options{TimeScale: 0.1, FaultProfile: "heavy"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Catalog() != faulty.Catalog() {
		t.Fatal("two characterizers hold different catalogs")
	}
	const tbl = `
experiment "shared" {
	benchmark rubbos; platform emulab; appserver tomcat;
	topologies 1-1-1, 1-2-1;
	workload { users 150; writeratio 15; }
	trial { warmup 20s; run 60s; cooldown 10s; }
	policies { scale app by 1 when util(app, cpu) > 0.01 cooldown 10s max 3; }
}`
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, c := range []*Characterizer{plain, faulty} {
		wg.Add(1)
		go func(i int, c *Characterizer) {
			defer wg.Done()
			errs[i] = c.RunTBL(tbl)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range faulty.Results().All() {
		if len(r.FaultEvents) == 0 || len(r.ScaleEvents) == 0 {
			t.Fatalf("%s: %d fault events, %d scale events; the test needs both",
				r.Key, len(r.FaultEvents), len(r.ScaleEvents))
		}
	}
	fresh, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Catalog(), fresh) {
		t.Fatal("running campaigns changed the shared catalog")
	}
	if fresh == plain.Catalog() {
		t.Fatal("cim.LoadCatalog returned the shared catalog, not a fresh copy")
	}
}
