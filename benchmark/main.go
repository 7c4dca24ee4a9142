// Command benchmark is the repository's end-to-end benchmark. It drives
// elba through its public entry points — the campaign service behind
// elbad, and the experiment runner's knee search — under a closed loop
// of two clients, checks every output, and prints the metrics as one
// JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds the
// harness from source first:
//
//	bash benchmark/run.sh -workload des-sweep -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones derived from the traced half's spans. README.md
// lists every metric, workload and bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses the run flags, runs the benchmark and prints its
// result. Exit codes: 0 correct, 1 a check failed (the result is still
// printed, with correct=false), 2 the run could not be made (no result).
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's TBL documents are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	workdir := fs.String("workdir", "", "scratch directory, removed at exit (default .bench_build/run-<pid>)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the timed phases to this file")
	traceout := fs.String("traceout", "", "Chrome trace-event file for -trace 1 (default .bench_build/trace-<workload>-seed<N>.json, \"-\" = none)")
	record := fs.String("record", "", "append the run's result, with workload, seed, run length and start time, to this JSONL file for compare")
	expect := fs.String("expect-digest", "", "fail unless the output digest equals this hex SHA-256 (seed 1 is pinned by default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	cfg := runConfig{
		workload:   *workload,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		scale:      fullScale,
		workdir:    *workdir,
		cpuprofile: *cpuprofile,
		traceout:   *traceout,
		expect:     *expect,
	}
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	}
	if cfg.traceout == "" && cfg.trace {
		cfg.traceout = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	}
	if cfg.traceout == "-" {
		cfg.traceout = ""
	}
	if cfg.expect == "" && cfg.seed == 1 {
		cfg.expect = pinnedDigests[cfg.workload]
	}

	out, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	printSummary(stdout, out)
	if *record != "" {
		if err := appendRecord(*record, cfg, out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.result.Correct {
		return 1
	}
	return 0
}

// printSummary writes the human-readable lines that precede the result:
// every failed check, then each metric with its unit and sample count.
func printSummary(w io.Writer, out *outcome) {
	for _, f := range out.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "digest %s\n", out.digest)
	names := make([]string, 0, len(out.result.Metrics))
	for name := range out.result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.result.Metrics[name]
		note := out.notes[name]
		fmt.Fprintf(w, "%-40s %14.6g %-10s %s\n", name, m.Value, m.Unit, note)
	}
}

// record is one line of a -record JSONL file: a run's result plus what
// compare needs to pair it with a run of the other commit.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	StartNs  int64   `json:"start_unix_ns"`
	Result   result  `json:"result"`
}

func appendRecord(path string, cfg runConfig, out *outcome) error {
	line, err := json.Marshal(record{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		StartNs:  out.start.UnixNano(),
		Result:   out.result,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
