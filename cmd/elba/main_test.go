package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elba/internal/campaign"
	"elba/internal/spec"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.tbl")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunExperimentAndExports(t *testing.T) {
	spec := writeSpec(t, `experiment "cli" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 60 to 120 step 60; writeratio 15; }
	}`)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	csvPath := filepath.Join(dir, "r.csv")
	err := run([]string{"-timescale", "0.05", "-json", jsonPath, "-csv", csvPath, spec})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]interface{}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("exported JSON invalid: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("exported %d results, want 2", len(results))
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "experiment,topology") {
		t.Fatalf("csv header wrong")
	}
}

func TestRunScaleoutMode(t *testing.T) {
	spec := writeSpec(t, `experiment "cli-so" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100; writeratio 15; }
	}`)
	err := run([]string{"-timescale", "0.05", "-scaleout", "-slo", "800", "-maxusers", "400", spec})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunScalingFlag forces the fluid engine from the command line and
// checks the exported results carry the engine tag.
func TestRunScalingFlag(t *testing.T) {
	spec := writeSpec(t, `experiment "cli-fluid" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 60 to 120 step 60; writeratio 15; }
	}`)
	jsonPath := filepath.Join(t.TempDir(), "r.json")
	err := run([]string{"-timescale", "0.05", "-scaling", "fluid", "-json", jsonPath, spec})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]interface{}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("exported %d results, want 2", len(results))
	}
	for _, r := range results {
		if r["engine"] != "fluid" {
			t.Fatalf("result not tagged fluid: %v", r)
		}
	}
}

// TestRunScalingAutoThreshold splits one sweep across engines: points at
// or above the threshold go fluid, points below stay on the DES.
func TestRunScalingAutoThreshold(t *testing.T) {
	spec := writeSpec(t, `experiment "cli-auto" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 60 to 120 step 60; writeratio 15; }
	}`)
	jsonPath := filepath.Join(t.TempDir(), "r.json")
	err := run([]string{"-timescale", "0.05", "-scaling", "auto",
		"-scalingthreshold", "100", "-json", jsonPath, spec})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]interface{}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	engines := map[float64]interface{}{}
	for _, r := range results {
		key := r["key"].(map[string]interface{})
		engines[key["users"].(float64)] = r["engine"]
	}
	if engines[60] != "des" {
		t.Fatalf("u=60 below threshold should be tagged des: %v", engines)
	}
	if engines[120] != "fluid" {
		t.Fatalf("u=120 above threshold should be fluid: %v", engines)
	}
}

// TestRunCacheDirReplays: a second run against the same -cachedir
// replays every trial from disk and exports byte-identical results.
func TestRunCacheDirReplays(t *testing.T) {
	specPath := writeSpec(t, `experiment "cached-cli" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 60 to 120 step 60; writeratio 15; }
	}`)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	out1 := filepath.Join(dir, "r1.json")
	out2 := filepath.Join(dir, "r2.json")
	if err := run([]string{"-timescale", "0.05", "-cachedir", cacheDir, "-json", out1, specPath}); err != nil {
		t.Fatal(err)
	}
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Stats().Loaded; n != 2 {
		t.Fatalf("cache dir reopens with %d entries, want 2", n)
	}
	if err := run([]string{"-timescale", "0.05", "-cachedir", cacheDir, "-json", out2, specPath}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached replay exported different bytes")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Errorf("no args should error")
	}
	if err := run([]string{"-scaling", "quantum"}); err == nil {
		t.Errorf("bad -scaling value should error")
	}
	if err := run([]string{"-scalingthreshold", "-5"}); err == nil {
		t.Errorf("negative -scalingthreshold should error")
	}
	if err := run([]string{"/nope.tbl"}); err == nil {
		t.Errorf("missing spec should error")
	}
	bad := writeSpec(t, `experiment "x" {`)
	if err := run([]string{bad}); err == nil {
		t.Errorf("bad spec should error")
	}
}

// TestShippedSpecsParse keeps the specs/ directory loadable by the CLI.
func TestShippedSpecsParse(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.tbl")
	if err != nil || len(files) < 4 {
		t.Fatalf("specs missing: %v %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Parse(string(data)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
