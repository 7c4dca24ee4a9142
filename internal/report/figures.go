package report

import (
	"fmt"
	"sort"
	"strings"

	"elba/internal/bottleneck"
	"elba/internal/cim"
	"elba/internal/mulini"
	"elba/internal/store"
)

// Table1Software renders the paper's Table 1: software configurations per
// benchmark and tier.
func Table1Software(cat *cim.Catalog) string {
	t := NewTable("Table 1. Summary of software configurations",
		"Benchmark", "Tier", "Components")
	for _, benchmark := range []string{"rubis", "rubbos"} {
		for _, tier := range []string{"db", "app", "web"} {
			var names []string
			for _, s := range cat.SoftwareForTier(benchmark, tier) {
				if s.Name == "sysstat" {
					continue
				}
				names = append(names, fmt.Sprintf("%s %s", s.Name, s.Version))
			}
			if len(names) > 0 {
				t.AddRow(benchmark, tier, strings.Join(names, ", "))
			}
		}
	}
	return t.String()
}

// Table2Hardware renders the paper's Table 2: hardware platforms.
func Table2Hardware(cat *cim.Catalog) string {
	t := NewTable("Table 2. Summary of hardware platforms",
		"Platform", "Node type", "Nodes", "Processor", "Memory", "Network", "Disk")
	for _, p := range cat.Platforms {
		for _, pool := range p.Pools {
			t.AddRow(
				p.Name, pool.NodeType,
				fmt.Sprint(pool.NodeCount),
				fmt.Sprintf("%d x %d MHz", pool.CPUCount, pool.CPUMHz),
				fmt.Sprintf("%d MB", pool.MemoryMB),
				fmt.Sprintf("%d Mbps", pool.NetworkMbps),
				fmt.Sprintf("%d RPM", pool.DiskRPM),
			)
		}
	}
	return t.String()
}

// ScaleRow is one experiment set's row in Table 3.
type ScaleRow struct {
	// Set names the experiment set and the paper figure it feeds.
	Set    string
	Figure string
	// Scale is the Mulini generation accounting.
	Scale mulini.ScaleReport
	// CollectedBytes is the monitoring data volume gathered while
	// running the set.
	CollectedBytes int
}

// Table3Scale renders the paper's Table 3: the management scale of the
// experiment sets (config lines, generated-script KLOC, machines,
// configurations, collected data).
func Table3Scale(rows []ScaleRow) string {
	t := NewTable("Table 3. Scale of experiments run",
		"Experiment set", "Figure", "Config lines (files)", "Generated script lines",
		"Machines", "Configurations", "Collected perf. data")
	for _, r := range rows {
		t.AddRow(
			r.Set, r.Figure,
			fmt.Sprintf("%d (%d files)", r.Scale.ConfigLines, r.Scale.ConfigFiles),
			fmt.Sprintf("%.1f KLOC", float64(r.Scale.ScriptLines)/1000),
			fmt.Sprint(r.Scale.MachineCount),
			fmt.Sprint(r.Scale.Configurations),
			formatBytes(r.CollectedBytes),
		)
	}
	return t.String()
}

func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.0f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Table4Scripts renders the paper's Table 4: examples of generated
// scripts with line counts, drawn from a real generated bundle.
func Table4Scripts(b *mulini.Bundle) string {
	t := NewTable("Table 4. Examples of generated scripts",
		"Generated script", "Line count", "Comment")
	for _, a := range b.ByKind(mulini.Script) {
		t.AddRow(a.Path, fmt.Sprint(a.Lines()), a.Comment)
	}
	return t.String()
}

// Table5Configs renders the paper's Table 5: configuration files modified
// by Mulini.
func Table5Configs(b *mulini.Bundle) string {
	t := NewTable("Table 5. Examples of configuration files modified",
		"Configuration file", "Line count", "Comment")
	for _, kind := range []mulini.ArtifactKind{mulini.Config, mulini.Data} {
		for _, a := range b.ByKind(kind) {
			t.AddRow(a.Path, fmt.Sprint(a.Lines()), a.Comment)
		}
	}
	return t.String()
}

// SurfaceGrid renders a users × write-ratio surface (Figures 1–3) as an
// aligned grid; failed cells render as "-".
func SurfaceGrid(title, unit string, sf store.Surface) string {
	headers := []string{"write\\users"}
	for _, u := range sf.Users {
		headers = append(headers, fmt.Sprint(u))
	}
	t := NewTable(fmt.Sprintf("%s (%s)", title, unit), headers...)
	for i, wr := range sf.WriteRatios {
		row := []string{fmt.Sprintf("%g%%", wr)}
		for j := range sf.Users {
			cell := sf.Cells[i][j]
			if !cell.OK {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.0f", cell.Value))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// SurfaceCSV renders a surface as CSV with one row per write ratio.
func SurfaceCSV(sf store.Surface) string {
	var b strings.Builder
	b.WriteString("write_ratio_pct")
	for _, u := range sf.Users {
		fmt.Fprintf(&b, ",u%d", u)
	}
	b.WriteString("\n")
	for i, wr := range sf.WriteRatios {
		fmt.Fprintf(&b, "%g", wr)
		for j := range sf.Users {
			cell := sf.Cells[i][j]
			if !cell.OK {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.2f", cell.Value)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Series is one named line in a multi-series figure.
type Series struct {
	Name   string
	Points []store.SeriesPoint
}

// SeriesTable renders multiple series against a shared x axis (Figures
// 4–8): one column per series, gaps for failed or absent points.
func SeriesTable(title, xLabel, unit string, series []Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xAxis []float64
	for x := range xs {
		xAxis = append(xAxis, x)
	}
	sort.Float64s(xAxis)

	headers := []string{xLabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s (%s)", title, unit), headers...)
	for _, x := range xAxis {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x && p.OK {
					cell = fmt.Sprintf("%.0f", p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// SeriesChart renders series as an aligned table followed by an ASCII
// line plot — the terminal form of the paper's figures.
func SeriesChart(title, xLabel, unit string, series []Series) string {
	var b strings.Builder
	b.WriteString(SeriesTable(title, xLabel, unit, series))
	b.WriteString("\n")
	p := NewPlot("", xLabel, unit, 72, 16)
	for _, s := range series {
		p.Add(s)
	}
	b.WriteString(p.String())
	return b.String()
}

// SeriesCSV renders multiple series as CSV against a shared x axis.
func SeriesCSV(xLabel string, series []Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xAxis []float64
	for x := range xs {
		xAxis = append(xAxis, x)
	}
	sort.Float64s(xAxis)
	var b strings.Builder
	b.WriteString(xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range xAxis {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			val := ""
			for _, p := range s.Points {
				if p.X == x && p.OK {
					val = fmt.Sprintf("%.2f", p.Y)
					break
				}
			}
			fmt.Fprintf(&b, ",%s", val)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Difference computes the pointwise difference a−b between two series,
// skipping x values missing from either — the paper's Figure 7 transform.
func Difference(name string, a, b []store.SeriesPoint) Series {
	bv := map[float64]store.SeriesPoint{}
	for _, p := range b {
		bv[p.X] = p
	}
	var out []store.SeriesPoint
	for _, pa := range a {
		if pb, ok := bv[pa.X]; ok && pa.OK && pb.OK {
			out = append(out, store.SeriesPoint{X: pa.X, Y: pa.Y - pb.Y, OK: true})
		}
	}
	return Series{Name: name, Points: out}
}

// Table6Improvement renders the paper's Table 6: percent response-time
// improvement over a base configuration at a fixed workload, for an
// (app × db) grid of topologies. rts maps "a-d" (app-db counts) to the
// observed mean response time.
func Table6Improvement(baseRT float64, appCounts, dbCounts []int, rts map[string]float64) string {
	headers := []string{"App \\ DB servers"}
	for _, d := range dbCounts {
		headers = append(headers, fmt.Sprintf("%d DB (%%)", d))
	}
	t := NewTable("Table 6. Response-time improvement over 1-1-1 (percent)", headers...)
	for _, a := range appCounts {
		row := []string{fmt.Sprintf("%d app", a)}
		for _, d := range dbCounts {
			key := fmt.Sprintf("%d-%d", a, d)
			rt, ok := rts[key]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", bottleneck.Improvement(baseRT, rt)))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// InteractionBreakdown renders a trial's per-interaction mean response
// times, sorted slowest first — the per-state output the RUBiS and RUBBoS
// client emulators produce for each run.
func InteractionBreakdown(r store.Result) string {
	t := NewTable(fmt.Sprintf("Per-interaction response time, %s", r.Key.String()),
		"Interaction", "Mean RT (ms)")
	type row struct {
		name string
		rt   float64
	}
	rows := make([]row, 0, len(r.PerInteraction))
	for name, rt := range r.PerInteraction {
		rows = append(rows, row{name, rt})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rt != rows[j].rt {
			return rows[i].rt > rows[j].rt
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.1f", r.rt))
	}
	return t.String()
}

// TableAvailability renders the failure/availability summary for one
// experiment under fault injection: per configuration, how many workload
// points completed versus failed, the trial attempts consumed by retry
// budgets, deployment-step retries, and the injected fault volume — the
// fault-injection companion to Table 7's missing squares.
func TableAvailability(st *store.Store, experiment string) string {
	t := NewTable(fmt.Sprintf("Availability under fault injection — %s", experiment),
		"Config (w-a-d)", "Points", "Completed", "Failed", "Availability",
		"Attempts", "Deploy retries", "Fault windows", "Injected errs")
	for _, topo := range st.Topologies(experiment) {
		rs := st.Filter(func(r store.Result) bool {
			return r.Key.Experiment == experiment && r.Key.Topology == topo
		})
		if len(rs) == 0 {
			continue
		}
		var completed, attempts, deployRetries, windows int
		var injected int64
		for _, r := range rs {
			if r.Completed {
				completed++
			}
			if r.Attempts > 0 {
				attempts += r.Attempts
			} else {
				attempts++ // no retry budget: one attempt per point
			}
			deployRetries += r.DeployRetries
			windows += len(r.FaultEvents)
			injected += r.InjectedErrors
		}
		failed := len(rs) - completed
		avail := float64(completed) / float64(len(rs)) * 100
		t.AddRow(topo,
			fmt.Sprint(len(rs)), fmt.Sprint(completed), fmt.Sprint(failed),
			fmt.Sprintf("%.1f%%", avail), fmt.Sprint(attempts),
			fmt.Sprint(deployRetries), fmt.Sprint(windows), fmt.Sprint(injected))
	}
	return t.String()
}

// TableResourceUtilization renders mean per-tier utilization of every
// contended resource against the user sweep for one configuration: the
// multi-resource generalization of Figure 8's CPU curves. A column
// appears only when at least one trial observed that (tier, resource)
// pair, so CPU-only experiments show the classic three columns.
func TableResourceUtilization(st *store.Store, experiment, topology string, writeRatioPct float64) string {
	rs := st.Filter(func(r store.Result) bool {
		return r.Key.Experiment == experiment && r.Key.Topology == topology &&
			r.Key.WriteRatioPct == writeRatioPct
	})
	sort.Slice(rs, func(i, j int) bool { return rs[i].Key.Users < rs[j].Key.Users })

	type col struct{ tier, res string }
	// util reads r's utilization of c's resource in c's tier.
	util := func(r *store.Result, c col) (float64, bool) {
		m := r.TierNet
		switch c.res {
		case "cpu":
			m = r.TierCPU
		case "disk":
			m = r.TierDisk
		}
		u, ok := m[c.tier]
		return u, ok
	}
	var cols []col
	for _, tier := range []string{"web", "app", "db"} {
		for _, res := range []string{"cpu", "disk", "net"} {
			c := col{tier, res}
			for _, r := range rs {
				if _, ok := util(&r, c); ok {
					cols = append(cols, c)
					break
				}
			}
		}
	}

	headers := []string{"Users"}
	for _, c := range cols {
		headers = append(headers, fmt.Sprintf("%s %s", c.tier, c.res))
	}
	t := NewTable(fmt.Sprintf("Per-tier resource utilization (%%) — %s %s at %g%% writes",
		experiment, topology, writeRatioPct), headers...)
	for _, r := range rs {
		row := []string{fmt.Sprint(r.Key.Users)}
		for _, c := range cols {
			if u, ok := util(&r, c); ok {
				row = append(row, fmt.Sprintf("%.1f", u))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Table7Throughput renders the paper's Table 7: average throughput per
// configuration and load, with failed trials as blank cells.
func Table7Throughput(st *store.Store, experiment string, writeRatioPct float64, topologies []string, loads []int) string {
	headers := []string{"Config (w-a-d)"}
	for _, l := range loads {
		headers = append(headers, fmt.Sprint(l))
	}
	t := NewTable("Table 7. Measured average throughput (req/s)", headers...)
	for _, topo := range topologies {
		row := []string{topo}
		for _, l := range loads {
			r, ok := st.Get(store.Key{
				Experiment: experiment, Topology: topo,
				Users: l, WriteRatioPct: writeRatioPct,
			})
			switch {
			case !ok:
				row = append(row, "-")
			case !r.Completed:
				row = append(row, "") // the paper's missing squares
			default:
				row = append(row, fmt.Sprintf("%.1f", r.Throughput))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}
