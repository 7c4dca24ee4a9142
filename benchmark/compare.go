package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// compareMain implements `compare parent.jsonl change.jsonl`: it pairs
// the untraced runs of the two files workload by workload, in file
// order, and gives each (end-to-end metric, workload) a verdict. It
// exits 1 when any verdict is a regression or a change run failed its
// checks.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change []record
		if change, err = readRecords(args[1]); err == nil {
			rows, bad := compareRuns(parent, change)
			printRows(stdout, rows)
			for _, w := range bad {
				fmt.Fprintf(stdout, "FAIL %s: a change run failed its checks\n", w)
			}
			for _, r := range rows {
				if r.Verdict == "regression" {
					bad = append(bad, r.Workload)
				}
			}
			if len(bad) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// row is one (metric, workload) verdict.
type row struct {
	Workload, Metric string
	Pairs            int
	Parent, Change   [3]float64 // first quartile, median, third quartile
	Wins             int
	Verdict, Reason  string
}

// compareRuns pairs the runs of each workload in file order and judges
// every end-to-end metric. It also returns the workloads where a change
// run was incorrect.
func compareRuns(parent, change []record) ([]row, []string) {
	byWorkload := func(rs []record) (map[string][]record, []string) {
		m := map[string][]record{}
		var order []string
		for _, r := range rs {
			if _, ok := m[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m, order
	}
	pw, order := byWorkload(parent)
	cw, _ := byWorkload(change)
	sort.Strings(order)
	var rows []row
	var bad []string
	for _, w := range order {
		p, c := pw[w], cw[w]
		n := min(len(p), len(c))
		p, c = p[:n], c[:n]
		for _, r := range c {
			if !r.Result.Correct {
				bad = append(bad, w)
				break
			}
		}
		unpaired := pairingFault(p, c)
		for _, d := range endToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i] = p[i].Result.Metrics[d.Name].Value
				cv[i] = c[i].Result.Metrics[d.Name].Value
			}
			r := judge(d, pv, cv, unpaired)
			r.Workload = w
			rows = append(rows, r)
		}
	}
	return rows, bad
}

// pairingFault says why the equally long run lists p and c are not
// comparable pairs, or returns "" when they are: every run must have
// measured the same number of seconds, and consecutive pairs must
// alternate which side ran first.
func pairingFault(p, c []record) string {
	for _, r := range append(append([]record(nil), p...), c...) {
		if r.Seconds != p[0].Seconds {
			return fmt.Sprintf("runs of %gs and %gs", p[0].Seconds, r.Seconds)
		}
	}
	for i := 1; i < len(p); i++ {
		if (p[i].StartNs < c[i].StartNs) == (p[i-1].StartNs < c[i-1].StartNs) {
			return "pairs do not alternate which side ran first"
		}
	}
	return ""
}

// judge applies the paired rule to one metric. A gain needs the change
// to win at least nine pairs in ten and its median to differ from the
// parent's by more than the parent's interquartile range. Otherwise the
// change's median may be worse than the parent's by at most the bound;
// where the parent's own spread is wider than the bound the metric is
// unresolved, unless every change run beats every parent run. A
// non-empty unpaired names why the runs are not comparable pairs, and
// makes the metric unresolved.
func judge(d metricDef, pv, cv []float64, unpaired string) row {
	n := len(pv)
	r := row{Metric: d.Name, Pairs: n}
	if n < 2 {
		r.Verdict, r.Reason = "unresolved", fmt.Sprintf("%d pairs, need %d", n, minPairs)
		return r
	}
	r.Parent, r.Change = quartiles(pv), quartiles(cv)
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range pv {
		if better(cv[i], pv[i]) {
			r.Wins++
		}
	}
	pMed, cMed := r.Parent[1], r.Change[1]
	iqr := r.Parent[2] - r.Parent[0]
	worse := (cMed - pMed) / pMed
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case n < minPairs:
		r.Verdict, r.Reason = "unresolved", fmt.Sprintf("%d pairs, need %d", n, minPairs)
	case unpaired != "":
		r.Verdict, r.Reason = "unresolved", unpaired
	case r.Wins*10 >= 9*n && better(cMed, pMed) && math.Abs(cMed-pMed) > iqr:
		r.Verdict = "gain"
	case iqr/pMed > d.Bound && !allBetter:
		r.Verdict, r.Reason = "unresolved", fmt.Sprintf("parent IQR %.1f%% exceeds the %.0f%% bound", 100*iqr/pMed, 100*d.Bound)
	case worse > d.Bound:
		r.Verdict, r.Reason = "regression", fmt.Sprintf("median %.1f%% worse, bound %.0f%%", 100*worse, 100*d.Bound)
	default:
		r.Verdict = "no-regression"
	}
	return r
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), which is how the benchmark's spread is defined.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tpairs\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	sort.SliceStable(rows, func(a, b int) bool { return metricIndex(rows[a].Metric) < metricIndex(rows[b].Metric) })
	for _, r := range rows {
		delta := 0.0
		if r.Parent[1] != 0 {
			delta = 100 * (r.Change[1] - r.Parent[1]) / r.Parent[1]
		}
		verdict := r.Verdict
		if r.Reason != "" {
			verdict += " (" + r.Reason + ")"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			r.Metric, r.Workload, r.Pairs, r.Parent[1], r.Parent[0], r.Parent[2],
			r.Change[1], r.Change[0], r.Change[2], delta, r.Wins, r.Pairs, verdict)
	}
	tw.Flush()
}

func metricIndex(name string) int {
	for i, d := range endToEnd {
		if d.Name == name {
			return i
		}
	}
	return len(endToEnd)
}
