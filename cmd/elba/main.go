// Command elba runs TBL experiment sets end to end on the simulated
// testbed: generation, deployment, trial sweeps, monitoring, and result
// storage, printing one line per trial and a summary table per
// experiment.
//
// Usage:
//
//	elba [-timescale F] [-json results.json] [-csv results.csv] SPEC.tbl
//	elba -suite reduced                 # run a built-in suite
//	elba -scaleout -spec SPEC.tbl       # run the §V.A scale-out loop
//	elba -cachedir DIR SPEC.tbl         # memoize trials across runs
//	elba -stream SPEC.tbl               # live knee/SLO detection + folded tables
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"

	"elba/internal/bottleneck"
	"elba/internal/campaign"
	"elba/internal/core"
	"elba/internal/experiment"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elba:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("elba", flag.ContinueOnError)
	timescale := fs.Float64("timescale", 1.0, "shrink trial periods by this factor (1.0 = paper protocol)")
	jsonOut := fs.String("json", "", "write the result store as JSON to this file")
	csvOut := fs.String("csv", "", "write the result store as CSV to this file")
	suite := fs.String("suite", "", "run a built-in suite: paper or reduced")
	archive := fs.String("archive", "", "store raw per-host monitor output under this directory")
	parallel := fs.Int("parallel", 1, "concurrent deployments per sweep")
	trialParallel := fs.Int("trialparallel", 1, "concurrent trials per deployment's workload grid (results identical for any value)")
	seed := fs.Uint64("seed", 0, "root seed mixed into every trial seed (0 = default derivation)")
	faults := fs.String("faults", "", "inject a built-in fault profile: none, light, or heavy")
	trialRetries := fs.Int("trialretries", 0, "re-run each failed workload point up to this many extra times")
	traceRate := fs.Float64("trace", 0, "head-sample this fraction of measured requests into span traces (0 = off)")
	traceExemplars := fs.Int("traceexemplars", 3, "slowest traces persisted in full per traced trial")
	traceOut := fs.String("traceout", "", "write exemplar traces as Chrome trace-event JSON to this file (requires -trace)")
	resources := fs.Bool("resources", false, "render the per-tier resource-utilization table per configuration")
	policies := fs.Bool("policies", false, "render the autoscaling timeline table per experiment with scale events")
	scaling := fs.String("scaling", "", "override the trial engine: des, fluid, or auto (empty = per-spec scaling clause)")
	scalingThreshold := fs.Int("scalingthreshold", 0, "population at which -scaling auto switches to the fluid engine")
	cacheDir := fs.String("cachedir", "", "memoize trials content-addressed under this directory; repeat runs and overlapping sweeps replay cached results")
	stream := fs.Bool("stream", false, "stream the run: per-trial RT sketches, live knee/SLO detection lines, folded tables at the end")
	resultLog := fs.String("resultlog", "", "append every committed result to this crash-safe log file (implies -stream)")
	scaleout := fs.Bool("scaleout", false, "run the observation-driven scale-out loop instead of a sweep")
	sloMS := fs.Float64("slo", 1000, "scale-out response-time objective in ms")
	maxUsers := fs.Int("maxusers", 2900, "scale-out workload bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *scaling {
	case "", "des", "fluid", "auto":
	default:
		return fmt.Errorf("-scaling must be des, fluid, or auto (got %q)", *scaling)
	}
	if *scalingThreshold < 0 {
		return fmt.Errorf("-scalingthreshold must be non-negative")
	}

	var src string
	switch {
	case *suite == "paper":
		src = core.PaperSuite()
	case *suite == "reduced":
		src = core.ReducedSuite()
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("usage: elba [flags] SPEC.tbl (or -suite paper|reduced)")
	}

	var cache *campaign.Cache
	var trialCache experiment.TrialCache
	if *cacheDir != "" {
		opened, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cache, trialCache = opened, opened
	}

	// Streaming: fold every committed result into running tables online,
	// print detections (knee, SLO onset, first failure) the moment their
	// trial lands, and optionally append each result to a crash-safe log.
	// The fold mutex serializes OnTrial, which may fire concurrently.
	streaming := *stream || *resultLog != ""
	var folder *report.Folder
	var rlog *campaign.ResultLog
	var foldMu sync.Mutex
	if streaming {
		folder = report.NewFolder()
		if *resultLog != "" {
			opened, err := campaign.OpenResultLog(*resultLog)
			if err != nil {
				return err
			}
			rlog = opened
			defer rlog.Close()
		}
	}

	c, err := core.New(core.Options{
		TimeScale:        *timescale,
		TrialCache:       trialCache,
		Parallel:         *parallel,
		TrialParallel:    *trialParallel,
		Seed:             *seed,
		FaultProfile:     *faults,
		TrialRetries:     *trialRetries,
		TraceRate:        *traceRate,
		TraceExemplars:   *traceExemplars,
		ScalingEngine:    *scaling,
		ScalingThreshold: *scalingThreshold,
		SketchRT:         streaming,
		OnTrial: func(r store.Result) {
			status := "ok"
			if !r.Completed {
				status = "FAILED: " + r.FailReason
			}
			fmt.Printf("  %-40s rt=%7.1fms x=%7.1f/s app=%5.1f%% db=%5.1f%% %s\n",
				r.Key.String(), r.AvgRTms, r.Throughput,
				r.TierCPU["app"], r.TierCPU["db"], status)
			if streaming {
				foldMu.Lock()
				if rlog != nil {
					if err := rlog.Append(r); err != nil {
						fmt.Fprintln(os.Stderr, "elba: result log:", err)
					}
				}
				for _, ev := range folder.Ingest(r) {
					fmt.Printf("  >> %s\n", ev.Message)
				}
				foldMu.Unlock()
			}
		},
	})
	if err != nil {
		return err
	}

	doc, err := spec.Parse(src)
	if err != nil {
		return err
	}
	if *archive != "" {
		c.Runner().ArchiveDir = *archive
	}

	if *scaleout {
		return runScaleout(c, doc, *sloMS, *maxUsers)
	}

	for _, e := range doc.Experiments {
		fmt.Printf("running experiment %q: %d trials across %d configuration(s)\n",
			e.Name, e.TrialCount(), len(e.AllTopologies()))
		if err := c.RunExperiment(e); err != nil {
			return err
		}
	}

	fmt.Println()
	fmt.Print(report.Table3Scale(c.ScaleRows(core.FigureOf)))

	if streaming {
		foldMu.Lock()
		tables := folder.Tables()
		foldMu.Unlock()
		fmt.Println()
		fmt.Print(tables)
		if rlog != nil {
			fmt.Printf("\nresult log %s: %d records\n", rlog.Path(), rlog.Len())
		}
	}

	if cache != nil {
		fmt.Printf("\ntrial cache %s: %s (this run: %d hits, %d misses)\n",
			cache.Dir(), cache.Stats(), c.Runner().CacheHits(), c.Runner().CacheMisses())
	}

	// Render each conditional table for every experiment whose results
	// carry its observations, table by table; the autoscaling timeline
	// only with -policies.
	for _, t := range report.PostRunTables {
		if t.Name == "scaling" && !*policies {
			continue
		}
		for _, e := range doc.Experiments {
			results := c.Results().Filter(func(r store.Result) bool { return r.Key.Experiment == e.Name })
			if slices.ContainsFunc(results, t.Has) {
				fmt.Println()
				fmt.Print(t.Render(c.Results(), e.Name))
			}
		}
	}

	// Render the per-tier resource-utilization table for every sweep when
	// asked: one table per (experiment, topology, write ratio).
	if *resources {
		for _, e := range doc.Experiments {
			for _, topo := range c.Results().Topologies(e.Name) {
				seen := map[float64]bool{}
				for _, r := range c.Results().Filter(func(r store.Result) bool {
					return r.Key.Experiment == e.Name && r.Key.Topology == topo
				}) {
					if seen[r.Key.WriteRatioPct] {
						continue
					}
					seen[r.Key.WriteRatioPct] = true
					fmt.Println()
					fmt.Print(report.TableResourceUtilization(c.Results(), e.Name, topo, r.Key.WriteRatioPct))
				}
			}
		}
	}

	// Render the trace tables for every experiment that ran with tracing,
	// and optionally export the exemplars for chrome://tracing.
	if *traceRate > 0 {
		for _, e := range doc.Experiments {
			traced := c.Results().Filter(func(r store.Result) bool {
				return r.Key.Experiment == e.Name && r.Trace != nil
			})
			if len(traced) == 0 {
				continue
			}
			fmt.Println()
			fmt.Print(report.TableTraceDecomp(c.Results(), e.Name))
			fmt.Println()
			fmt.Print(report.TableTraceVerdict(c.Results(), e.Name, bottleneck.DefaultThresholds))
		}
		if *traceOut != "" {
			names := make([]string, len(doc.Experiments))
			for i, e := range doc.Experiments {
				names[i] = e.Name
			}
			data, err := report.TraceEventsJSON(c.Results(), names...)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}

	if *jsonOut != "" {
		data, err := c.Results().MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d results)\n", *jsonOut, c.Results().Len())
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(c.Results().CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	return nil
}

func runScaleout(c *core.Characterizer, doc *spec.Document, sloMS float64, maxUsers int) error {
	for _, e := range doc.Experiments {
		fmt.Printf("scale-out loop for %q (SLO %.0f ms, up to %d users)\n", e.Name, sloMS, maxUsers)
		steps, err := c.ScaleOut(e, experiment.ScaleOutOptions{
			SLOms:    sloMS,
			MaxUsers: maxUsers,
		})
		if err != nil {
			return err
		}
		t := report.NewTable("", "Step", "Config", "Users", "Avg RT (ms)", "Bottleneck", "Action", "Note")
		for i, s := range steps {
			rt := fmt.Sprintf("%.0f", s.AvgRTms)
			if !s.Completed {
				rt = "failed"
			}
			bott := s.Verdict.Tier
			if s.Verdict.Resource != "" && s.Verdict.Resource != "cpu" {
				bott += "/" + s.Verdict.Resource
			}
			t.AddRow(fmt.Sprint(i+1), s.Topology.String(), fmt.Sprint(s.Users),
				rt, bott, string(s.Action), s.Note)
		}
		fmt.Print(t.String())
	}
	return nil
}
