package experiment

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"elba/internal/spec"
)

// TestRunTrialSameAfterLargerTrial runs a small faulted, traced and
// sketched point, then a 1 900-user trial whose kernel goes back to the
// pool with every part of its arena grown, then the small point again:
// the recycled kernel must reproduce the first result byte for byte.
func TestRunTrialSameAfterLargerTrial(t *testing.T) {
	r := testRunner(t)
	r.TraceRate, r.TraceExemplars = 0.2, 3
	r.SketchRT = true
	topo := spec.Topology{Web: 1, App: 2, DB: 1}
	small := rubisExperiment(t, `
		topology { web 1; app 2; db 1; }
		workload { users 60; writeratio 15; }
		faults { JONAS1 slowdown 0.5 at 20s for 100s; client errorburst 0.2 at 150s for 30s; }`)
	point := func() []byte {
		t.Helper()
		out, err := r.RunTrialAt(small, topo, 60, 15)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Trace == nil || out.Result.RTSketch == nil || out.Result.InjectedErrors == 0 {
			t.Fatalf("point ran without traces, sketch or injected errors: %+v", out.Result)
		}
		data, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	before := point()
	big := rubisExperiment(t, `
		topology { web 1; app 2; db 1; }
		workload { users 1900; writeratio 15; }`)
	if _, err := r.RunTrialAt(big, topo, 1900, 15); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if after := point(); !bytes.Equal(after, before) {
			t.Fatalf("run %d after the larger trial differs:\n%s\nbefore:\n%s", i, after, before)
		}
	}
}

// TestArchiveSameAtEveryTrialParallel runs the determinism grid with an
// archive directory at one and at four trial workers, whose trials
// recycle each other's kernels in scheduling order: the stores and every
// archived file must be identical.
func TestArchiveSameAtEveryTrialParallel(t *testing.T) {
	run := func(workers int) (string, map[string][]byte) {
		dir := t.TempDir()
		_, jsonText, _ := runGrid(t, workers, func(r *Runner) { r.ArchiveDir = dir })
		files := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return jsonText, files
	}
	baseJSON, baseFiles := run(1)
	if len(baseFiles) == 0 {
		t.Fatal("the grid archived nothing")
	}
	gotJSON, gotFiles := run(4)
	if gotJSON != baseJSON {
		t.Fatal("4 trial workers stored different results from 1")
	}
	if len(gotFiles) != len(baseFiles) {
		t.Fatalf("4 trial workers archived %d files, 1 worker %d", len(gotFiles), len(baseFiles))
	}
	for path, data := range baseFiles {
		if !bytes.Equal(gotFiles[path], data) {
			t.Fatalf("archived %s differs between 1 and 4 trial workers", path)
		}
	}
}
