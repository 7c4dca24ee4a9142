// Command figures regenerates every table and figure in the paper's
// evaluation from fresh experiment runs on the simulated testbed. Each
// artifact is printed and, with -out, written as .txt (aligned table) and
// .csv (plot data) files.
//
// Usage:
//
//	figures                      # everything, full trial protocol
//	figures -reduced -timescale 0.2   # quick qualitative pass
//	figures -only fig1,table7    # selected artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"elba/internal/core"
	"elba/internal/spec"
	"elba/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// artifact is one regenerable table or figure.
type artifact struct {
	id    string
	title string
	// needs lists the experiment sets the artifact reads.
	needs []string
	// render produces the text (and optional CSV) from completed runs.
	render func(ctx *context) (text, csv string, err error)
}

// context carries the shared state for rendering.
type context struct {
	c *core.Characterizer
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	timescale := fs.Float64("timescale", 1.0, "shrink trial periods (1.0 = paper protocol)")
	parallel := fs.Int("parallel", 4, "concurrent deployments per sweep")
	trialParallel := fs.Int("trialparallel", 1, "concurrent trials per deployment's workload grid (results identical for any value)")
	seed := fs.Uint64("seed", 0, "root seed mixed into every trial seed (0 = default derivation)")
	outDir := fs.String("out", "", "write artifacts under this directory")
	only := fs.String("only", "", "comma-separated artifact ids (table1..table7, fig1..fig8)")
	reduced := fs.Bool("reduced", false, "use the reduced experiment envelope")
	verbose := fs.Bool("v", false, "print one line per trial")
	if err := fs.Parse(args); err != nil {
		return err
	}

	arts := artifacts()
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(id)] = true
		}
		for id := range selected {
			if !hasArtifact(arts, id) {
				return fmt.Errorf("unknown artifact %q", id)
			}
		}
	}

	var onTrial func(store.Result)
	if *verbose {
		onTrial = func(r store.Result) {
			fmt.Printf("  trial %-40s rt=%7.1fms ok=%t\n", r.Key.String(), r.AvgRTms, r.Completed)
		}
	}
	c, err := core.New(core.Options{
		TimeScale:     *timescale,
		Parallel:      *parallel,
		TrialParallel: *trialParallel,
		Seed:          *seed,
		OnTrial:       onTrial,
	})
	if err != nil {
		return err
	}
	ctx := &context{c: c}

	// Run the union of needed experiment sets once.
	needed := map[string]bool{}
	for _, a := range arts {
		if len(selected) > 0 && !selected[a.id] {
			continue
		}
		for _, n := range a.needs {
			needed[n] = true
		}
	}
	var order []string
	for n := range needed {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, set := range order {
		src, ok := suiteTBL(set, *reduced)
		if !ok {
			return fmt.Errorf("no TBL for experiment set %q", set)
		}
		doc, err := spec.Parse(src)
		if err != nil {
			return err
		}
		for _, e := range doc.Experiments {
			fmt.Fprintf(os.Stderr, "figures: running %s (%d trials)...\n", e.Name, e.TrialCount())
			if err := c.RunExperiment(e); err != nil {
				return err
			}
		}
	}

	for _, a := range arts {
		if len(selected) > 0 && !selected[a.id] {
			continue
		}
		text, csv, err := a.render(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		fmt.Printf("==== %s: %s ====\n%s\n", a.id, a.title, text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outDir, a.id+".txt"), []byte(text), 0o644); err != nil {
				return err
			}
			if csv != "" {
				if err := os.WriteFile(filepath.Join(*outDir, a.id+".csv"), []byte(csv), 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func hasArtifact(arts []artifact, id string) bool {
	for _, a := range arts {
		if a.id == id {
			return true
		}
	}
	return false
}

// suiteTBL returns the TBL source for a named experiment set.
func suiteTBL(set string, reduced bool) (string, bool) {
	switch set {
	case "rubis-baseline-jonas":
		if reduced {
			return `experiment "rubis-baseline-jonas" {
				benchmark rubis; platform emulab; appserver jonas;
				workload { users 50 to 250 step 50; writeratio 0 to 90 step 30; }
			}`, true
		}
		return core.RubisBaselineJOnASTBL, true
	case "rubis-baseline-weblogic":
		if reduced {
			return `experiment "rubis-baseline-weblogic" {
				benchmark rubis; platform warp; appserver weblogic;
				workload { users 100 to 600 step 100; writeratio 0 to 90 step 30; }
			}`, true
		}
		return core.RubisBaselineWebLogicTBL, true
	case "rubis-scaleout-jonas":
		if reduced {
			return core.RubisScaleoutTBL(8, 2, 1900, 200), true
		}
		return core.RubisScaleoutTBL(12, 3, 2900, 200), true
	case "rubbos-baseline":
		if reduced {
			return `experiment "rubbos-baseline-readonly" {
				benchmark rubbos; platform emulab; mix read-only;
				workload { users 1000 to 5000 step 1000; }
			}
			experiment "rubbos-baseline-mix" {
				benchmark rubbos; platform emulab; mix submission;
				workload { users 1000 to 5000 step 1000; writeratio 15; }
			}`, true
		}
		return core.RubbosBaselineTBL, true
	default:
		return "", false
	}
}
