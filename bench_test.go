package elba

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (DESIGN.md §4) at reduced scale, reporting the headline
// quantity of each artifact as a custom metric so regressions in the
// *shape* of a result are visible in benchmark output, not only its
// speed. Run with:
//
//	go test -bench=. -benchmem
//
// Full-fidelity artifacts come from `go run ./cmd/figures`.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"testing"

	"elba/internal/bench/rubis"
	"elba/internal/bottleneck"
	"elba/internal/cim"
	"elba/internal/core"
	"elba/internal/mulini"
	"elba/internal/report"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// benchScale shrinks trial periods for the benchmark harness.
const benchScale = 0.05

func mustCharacterizer(b *testing.B) *Characterizer {
	b.Helper()
	c, err := New(Options{TimeScale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func mustRun(b *testing.B, c *Characterizer, tbl string) {
	b.Helper()
	if err := c.RunTBL(tbl); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Tables 1–5: catalog and generation artifacts.
// ---------------------------------------------------------------------

func BenchmarkTable1SoftwareCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat, err := cim.LoadCatalog()
		if err != nil {
			b.Fatal(err)
		}
		out := report.Table1Software(cat)
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2HardwareCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat, err := cim.LoadCatalog()
		if err != nil {
			b.Fatal(err)
		}
		out := report.Table2Hardware(cat)
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3ExperimentScale regenerates the generation-side scale
// accounting for the paper's full suite: hundreds of thousands of script
// lines across the four experiment sets.
func BenchmarkTable3ExperimentScale(b *testing.B) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.Parse(core.PaperSuite())
	if err != nil {
		b.Fatal(err)
	}
	var lines int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = 0
		for _, e := range doc.Experiments {
			ds, err := gen.Generate(e)
			if err != nil {
				b.Fatal(err)
			}
			lines += mulini.Scale(e, ds).ScriptLines
		}
	}
	b.ReportMetric(float64(lines), "script-lines")
}

func benchBundle(b *testing.B) *mulini.Bundle {
	b.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.Parse(core.RubisBaselineJOnASTBL)
	if err != nil {
		b.Fatal(err)
	}
	d, err := gen.GenerateOne(doc.Experiments[0], spec.Topology{Web: 1, App: 2, DB: 2})
	if err != nil {
		b.Fatal(err)
	}
	return d.Bundle
}

func BenchmarkTable4GeneratedScripts(b *testing.B) {
	bundle := benchBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Table4Scripts(bundle); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(bundle.TotalLines(mulini.Script)), "script-lines")
}

func BenchmarkTable5ConfigFiles(b *testing.B) {
	bundle := benchBundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Table5Configs(bundle); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(bundle.ByKind(mulini.Config))), "config-files")
}

// ---------------------------------------------------------------------
// Figures 1–3: baseline surfaces.
// ---------------------------------------------------------------------

// BenchmarkFigure1RubisJonasRT regenerates a reduced Figure 1 surface and
// reports the saturation blow-up factor: RT(250 users, 0% writes) over
// RT(50 users, 0% writes). The paper's surface rises steeply in that
// corner.
func BenchmarkFigure1RubisJonasRT(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "fig1" {
			benchmark rubis; platform emulab; appserver jonas;
			workload { users 50 to 250 step 200; writeratio 0 to 90 step 90; }
		}`)
		sf := c.Results().RTSurface("fig1", "1-1-1")
		lo := sf.Cells[0][0].Value // w=0, 50 users
		hi := sf.Cells[0][1].Value // w=0, 250 users
		if lo <= 0 || hi <= lo {
			b.Fatalf("figure 1 shape broken: lo=%g hi=%g", lo, hi)
		}
		ratio = hi / lo
	}
	b.ReportMetric(ratio, "rt-blowup-x")
}

// BenchmarkFigure2RubisJonasCPU reports the app-server CPU utilization at
// the saturated corner (paper: pinned near 100%).
func BenchmarkFigure2RubisJonasCPU(b *testing.B) {
	var cpu float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "fig2" {
			benchmark rubis; platform emulab; appserver jonas;
			workload { users 250; writeratio 0; }
		}`)
		sf := c.Results().CPUSurface("fig2", "1-1-1", "app")
		cpu = sf.Cells[0][0].Value
		if cpu < 70 {
			b.Fatalf("app CPU = %.1f%%, not saturated", cpu)
		}
	}
	b.ReportMetric(cpu, "app-cpu-pct")
}

// BenchmarkFigure3RubisWeblogicRT reports WebLogic's saturation point
// relative to JOnAS (paper: about twice the users).
func BenchmarkFigure3RubisWeblogicRT(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "fig3-wl" {
			benchmark rubis; platform warp; appserver weblogic;
			workload { users 100 to 700 step 100; writeratio 15; }
		}
		experiment "fig3-jonas" {
			benchmark rubis; platform emulab; appserver jonas;
			workload { users 100 to 700 step 100; writeratio 15; }
		}`)
		wl, okW := bottleneck.Knee(c.Results().RTvsUsers("fig3-wl", "1-1-1", 15), 500)
		jo, okJ := bottleneck.Knee(c.Results().RTvsUsers("fig3-jonas", "1-1-1", 15), 500)
		if !okW || !okJ || jo == 0 {
			b.Fatalf("saturation not found: wl=%v jonas=%v", okW, okJ)
		}
		ratio = wl / jo
		if ratio < 1.5 {
			b.Fatalf("WebLogic/JOnAS saturation ratio %.2f, want ≈2 (paper §IV.B)", ratio)
		}
	}
	b.ReportMetric(ratio, "weblogic-vs-jonas-x")
}

// BenchmarkFigure4RubbosBaseline reports how much earlier the read-only
// mix saturates than the 85/15 mix (paper: much lower workload).
func BenchmarkFigure4RubbosBaseline(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "fig4-ro" {
			benchmark rubbos; platform emulab; mix read-only;
			workload { users 1000 to 5000 step 1000; }
		}
		experiment "fig4-mix" {
			benchmark rubbos; platform emulab; mix submission;
			workload { users 1000 to 5000 step 1000; writeratio 15; }
		}`)
		ro, okR := bottleneck.SaturationUsers(c.Results().RTvsUsers("fig4-ro", "1-1-1", 0), 3)
		mix, okM := bottleneck.SaturationUsers(c.Results().RTvsUsers("fig4-mix", "1-1-1", 15), 3)
		if !okR {
			b.Fatal("read-only mix never saturated")
		}
		if !okM {
			mix = 5000 // compliant through the range: credit the bound
		}
		if ro >= mix {
			b.Fatalf("read-only should saturate earlier: ro=%g mix=%g", ro, mix)
		}
		gap = mix - ro
	}
	b.ReportMetric(gap, "saturation-gap-users")
}

// ---------------------------------------------------------------------
// Figures 5–8, Tables 6–7: the scale-out grid.
// ---------------------------------------------------------------------

// scaleoutBench runs a reduced scale-out grid once and hands the results
// to the measurement closure.
func scaleoutBench(b *testing.B, tbl string, measure func(st *store.Store) float64, metric string) {
	var val float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, tbl)
		val = measure(c.Results())
	}
	b.ReportMetric(val, metric)
}

// BenchmarkFigure5RubisScaleoutRT reports the per-app-server user
// increment: the 500 ms SLO knee of 1-3-1 minus that of 1-2-1 (paper:
// each added app server supports roughly 250 additional users).
func BenchmarkFigure5RubisScaleoutRT(b *testing.B) {
	scaleoutBench(b, `experiment "fig5" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-2-1, 1-3-1;
		workload { users 300 to 1100 step 100; writeratio 15; }
	}`, func(st *store.Store) float64 {
		s2, ok2 := bottleneck.Knee(st.RTvsUsers("fig5", "1-2-1", 15), 500)
		s3, ok3 := bottleneck.Knee(st.RTvsUsers("fig5", "1-3-1", 15), 500)
		if !ok2 || !ok3 || s3 <= s2 {
			b.Fatalf("knee ordering broken: 1-2-1=%g 1-3-1=%g", s2, s3)
		}
		return s3 - s2
	}, "users-per-app-server")
}

// BenchmarkFigure6RubisScaleoutHigh reports the response-time overlap of
// DB-relieved high-app configurations (paper: 1-8-2 and 1-8-3 overlap).
func BenchmarkFigure6RubisScaleoutHigh(b *testing.B) {
	scaleoutBench(b, `experiment "fig6" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-8-2, 1-8-3;
		workload { users 1500 to 1900 step 400; writeratio 15; }
	}`, func(st *store.Store) float64 {
		a := st.RTvsUsers("fig6", "1-8-2", 15)
		c := st.RTvsUsers("fig6", "1-8-3", 15)
		if len(a) == 0 || len(c) == 0 {
			b.Fatal("missing series")
		}
		// Relative gap at the highest common load should be small.
		last := len(a) - 1
		gap := (a[last].Y - c[last].Y) / a[last].Y * 100
		if gap < 0 {
			gap = -gap
		}
		if gap > 40 {
			b.Fatalf("1-8-2 and 1-8-3 should roughly overlap; gap = %.1f%%", gap)
		}
		return gap
	}, "overlap-gap-pct")
}

// BenchmarkFigure7DBDifference reports the response-time jump between one
// and two DB servers at 1700 users with 8 app servers (paper: a sudden
// jump at 1700).
func BenchmarkFigure7DBDifference(b *testing.B) {
	scaleoutBench(b, `experiment "fig7" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-8-1, 1-8-2;
		workload { users 1300 to 1700 step 400; writeratio 15; }
	}`, func(st *store.Store) float64 {
		diff := report.Difference("d", st.RTvsUsers("fig7", "1-8-1", 15),
			st.RTvsUsers("fig7", "1-8-2", 15))
		if len(diff.Points) < 2 {
			b.Fatal("missing difference points")
		}
		early, late := diff.Points[0].Y, diff.Points[len(diff.Points)-1].Y
		if late <= early {
			b.Fatalf("difference should jump at the DB knee: %.0f -> %.0f ms", early, late)
		}
		return late
	}, "rt-jump-ms")
}

// BenchmarkFigure8DBUtilization reports the single DB server's CPU at
// 1700 users (paper: saturated).
func BenchmarkFigure8DBUtilization(b *testing.B) {
	scaleoutBench(b, `experiment "fig8" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-8-1;
		workload { users 1700; writeratio 15; }
	}`, func(st *store.Store) float64 {
		pts := st.TierCPUVsUsers("fig8", "1-8-1", "db", 15)
		if len(pts) == 0 {
			b.Fatal("missing db series")
		}
		cpu := pts[len(pts)-1].Y
		if cpu < 80 {
			b.Fatalf("db CPU = %.1f%%, want saturated at 1700 users", cpu)
		}
		return cpu
	}, "db-cpu-pct")
}

// BenchmarkTable6Improvement reports the improvement of adding one app
// server at 500 users (paper: 84.3%), measured over admitted sessions.
func BenchmarkTable6Improvement(b *testing.B) {
	scaleoutBench(b, `experiment "t6" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-1-1, 1-2-1, 1-1-2;
		workload { users 500; writeratio 15; }
	}`, func(st *store.Store) float64 {
		get := func(topo string) float64 {
			r, ok := st.Get(store.Key{Experiment: "t6", Topology: topo, Users: 500, WriteRatioPct: 15})
			if !ok || r.AvgRTms <= 0 {
				b.Fatalf("missing trial %s", topo)
			}
			return r.AvgRTms
		}
		base := get("1-1-1")
		app := bottleneck.Improvement(base, get("1-2-1"))
		db := bottleneck.Improvement(base, get("1-1-2"))
		if app < 50 || db > app/2 {
			b.Fatalf("improvement contrast broken: app=%.1f%% db=%.1f%%", app, db)
		}
		return app
	}, "app-improvement-pct")
}

// BenchmarkTable7Throughput reports the number of failed (missing-square)
// cells in a reduced Table 7 grid: the 1-2-1 column above 700 users.
func BenchmarkTable7Throughput(b *testing.B) {
	scaleoutBench(b, `experiment "t7" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies 1-2-1, 1-4-1;
		workload { users 300 to 1100 step 400; writeratio 15; }
	}`, func(st *store.Store) float64 {
		missing := 0
		for _, r := range st.All() {
			if !r.Completed {
				missing++
				if r.Key.Topology == "1-2-1" && r.Key.Users <= 700 {
					b.Fatalf("1-2-1 failed at %d users, should hold to 700", r.Key.Users)
				}
				if r.Key.Topology == "1-4-1" && r.Key.Users <= 1100 {
					b.Fatalf("1-4-1 failed at %d users, should hold to 1400", r.Key.Users)
				}
			}
		}
		if missing == 0 {
			b.Fatal("expected missing squares above 700 users on 1-2-1")
		}
		return float64(missing)
	}, "missing-squares")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).
// ---------------------------------------------------------------------

// BenchmarkAblationDBReplication contrasts RAIDb-1 write broadcast with
// idealized sharding: the broadcast makes DB scale-out sub-linear, which
// is what puts the paper's 2-DB knee at ≈2900 rather than 2×1700.
func BenchmarkAblationDBReplication(b *testing.B) {
	const (
		reqs = 20000
		w    = 0.15
		dr   = 0.0039
		dw   = 0.0078
	)
	var subLinearity float64
	for i := 0; i < b.N; i++ {
		run := func(broadcast bool) float64 {
			k := sim.NewKernel(42)
			reps := []*sim.Station{
				sim.NewStation(k, sim.StationConfig{Name: "DB1", Servers: 1, Speed: 1, Deterministic: true}),
				sim.NewStation(k, sim.StationConfig{Name: "DB2", Servers: 1, Speed: 1, Deterministic: true}),
			}
			db := sim.NewRAIDb(k, sim.RoundRobin, reps)
			for j := 0; j < reqs; j++ {
				if j%100 < int(w*100) {
					if broadcast {
						db.Write(dw, func(bool, float64, float64) {})
					} else {
						db.Read(dw, func(bool, float64, float64) {}) // sharded write: one replica
					}
				} else {
					db.Read(dr, func(bool, float64, float64) {})
				}
			}
			k.Run(1e12)
			var busy float64
			for _, r := range reps {
				busy += r.BusyTime()
			}
			return busy / 2 / reqs // per-replica demand per request
		}
		raidb := run(true)
		sharded := run(false)
		if raidb <= sharded {
			b.Fatalf("RAIDb-1 should cost more per replica than sharding: %.6f vs %.6f", raidb, sharded)
		}
		subLinearity = raidb / sharded
	}
	b.ReportMetric(subLinearity, "raidb-overhead-x")
}

// BenchmarkAblationConnPool removes the 350-session pool: Table 7's
// missing squares disappear and the overloaded trial completes.
func BenchmarkAblationConnPool(b *testing.B) {
	var errWith, errWithout float64
	for i := 0; i < b.N; i++ {
		model, err := rubis.Bidding(rubis.JOnAS)
		if err != nil {
			b.Fatal(err)
		}
		run := func(maxSessions int) float64 {
			k := sim.NewKernel(7)
			mk := func(name string, n int, speed float64, servers int) []*sim.Station {
				out := make([]*sim.Station, n)
				for j := range out {
					out[j] = sim.NewStation(k, sim.StationConfig{Name: name, Servers: servers, Speed: speed})
				}
				return out
			}
			nt := &sim.NTier{
				Web: sim.NewTier(k, "web", sim.RoundRobin, mk("WEB", 1, 1, 1)),
				App: sim.NewTier(k, "app", sim.RoundRobin, mk("APP", 2, 1, 1)),
				DB:  sim.NewRAIDb(k, sim.RoundRobin, mk("DB", 1, 0.2, 1)),
			}
			d := sim.NewDriver(k, nt, model, sim.DriverConfig{
				Users: 800, RampUp: 2, MaxSessions: maxSessions,
			}, 7)
			d.Start()
			k.Run(5)
			d.BeginMeasurement()
			k.Run(25)
			d.EndMeasurement()
			total := float64(d.ResponseTimes().Count()) + float64(d.Errors())
			if total == 0 {
				return 0
			}
			return float64(d.Errors()) / total
		}
		errWith = run(700)
		errWithout = run(0)
		if errWith < 0.05 {
			b.Fatalf("with pool: error rate %.3f, expected trial failure", errWith)
		}
		if errWithout > 0.05 {
			b.Fatalf("without pool: error rate %.3f, expected completion", errWithout)
		}
	}
	b.ReportMetric(errWith*100, "pooled-error-pct")
	b.ReportMetric(errWithout*100, "unpooled-error-pct")
}

// BenchmarkAblationNodeScaling puts the database on a 3 GHz node instead
// of the paper's 600 MHz host: the Figure 8 DB knee vanishes.
func BenchmarkAblationNodeScaling(b *testing.B) {
	var slowCPU, fastCPU float64
	for i := 0; i < b.N; i++ {
		model, err := rubis.Bidding(rubis.JOnAS)
		if err != nil {
			b.Fatal(err)
		}
		run := func(dbSpeed float64) float64 {
			k := sim.NewKernel(13)
			mk := func(name string, n int, speed float64) []*sim.Station {
				out := make([]*sim.Station, n)
				for j := range out {
					out[j] = sim.NewStation(k, sim.StationConfig{Name: name, Servers: 1, Speed: speed})
				}
				return out
			}
			db := mk("DB", 1, dbSpeed)
			nt := &sim.NTier{
				Web: sim.NewTier(k, "web", sim.RoundRobin, mk("WEB", 1, 1)),
				App: sim.NewTier(k, "app", sim.RoundRobin, mk("APP", 8, 1)),
				DB:  sim.NewRAIDb(k, sim.RoundRobin, db),
			}
			d := sim.NewDriver(k, nt, model, sim.DriverConfig{Users: 1700, RampUp: 3}, 13)
			d.Start()
			k.Run(8)
			db[0].ResetAccounting()
			start := k.Now()
			k.Run(start + 30)
			return db[0].BusyTime() / (k.Now() - start) * 100
		}
		slowCPU = run(0.2)
		fastCPU = run(1.0)
		if slowCPU < 80 {
			b.Fatalf("600 MHz DB should saturate at 1700 users: %.1f%%", slowCPU)
		}
		if fastCPU > 60 {
			b.Fatalf("3 GHz DB should be comfortable at 1700 users: %.1f%%", fastCPU)
		}
	}
	b.ReportMetric(slowCPU, "db600MHz-cpu-pct")
	b.ReportMetric(fastCPU, "db3GHz-cpu-pct")
}

// BenchmarkAblationBalancer compares round-robin (the paper's mod_jk
// setup) with least-connections across the app tier near saturation.
func BenchmarkAblationBalancer(b *testing.B) {
	var rrRT, lcRT float64
	for i := 0; i < b.N; i++ {
		model, err := rubis.Bidding(rubis.JOnAS)
		if err != nil {
			b.Fatal(err)
		}
		run := func(policy sim.BalancerPolicy) float64 {
			k := sim.NewKernel(21)
			mk := func(name string, n int, speed float64) []*sim.Station {
				out := make([]*sim.Station, n)
				for j := range out {
					out[j] = sim.NewStation(k, sim.StationConfig{Name: name, Servers: 1, Speed: speed})
				}
				return out
			}
			nt := &sim.NTier{
				Web: sim.NewTier(k, "web", sim.RoundRobin, mk("WEB", 1, 1)),
				App: sim.NewTier(k, "app", policy, mk("APP", 4, 1)),
				DB:  sim.NewRAIDb(k, sim.RoundRobin, mk("DB", 1, 0.2)),
			}
			d := sim.NewDriver(k, nt, model, sim.DriverConfig{Users: 900, RampUp: 2}, 21)
			d.Start()
			k.Run(6)
			d.BeginMeasurement()
			k.Run(36)
			d.EndMeasurement()
			return d.ResponseTimes().Mean() * 1000
		}
		rrRT = run(sim.RoundRobin)
		lcRT = run(sim.LeastConnections)
		if rrRT <= 0 || lcRT <= 0 {
			b.Fatal("no measurements")
		}
	}
	b.ReportMetric(rrRT, "roundrobin-rt-ms")
	b.ReportMetric(lcRT, "leastconn-rt-ms")
}

// BenchmarkAblationWarmup measures without a warm-up period: response
// times are biased low because early requests hit an empty system (the
// reason the trial protocol exists, paper §III.B).
func BenchmarkAblationWarmup(b *testing.B) {
	var bias float64
	for i := 0; i < b.N; i++ {
		model, err := rubis.Bidding(rubis.JOnAS)
		if err != nil {
			b.Fatal(err)
		}
		run := func(warmup float64) float64 {
			k := sim.NewKernel(31)
			mk := func(name string, n int, speed float64) []*sim.Station {
				out := make([]*sim.Station, n)
				for j := range out {
					out[j] = sim.NewStation(k, sim.StationConfig{Name: name, Servers: 1, Speed: speed})
				}
				return out
			}
			nt := &sim.NTier{
				Web: sim.NewTier(k, "web", sim.RoundRobin, mk("WEB", 1, 1)),
				App: sim.NewTier(k, "app", sim.RoundRobin, mk("APP", 1, 1)),
				DB:  sim.NewRAIDb(k, sim.RoundRobin, mk("DB", 1, 0.2)),
			}
			d := sim.NewDriver(k, nt, model, sim.DriverConfig{Users: 300, RampUp: 2}, 31)
			d.Start()
			k.Run(warmup)
			d.BeginMeasurement()
			k.Run(warmup + 30)
			d.EndMeasurement()
			return d.ResponseTimes().Mean() * 1000
		}
		cold := run(0.01)
		warm := run(15)
		if warm <= 0 {
			b.Fatal("no warm measurement")
		}
		bias = (warm - cold) / warm * 100
		if bias <= 0 {
			b.Fatalf("cold measurement should be biased low: cold=%.0f warm=%.0f", cold, warm)
		}
	}
	b.ReportMetric(bias, "cold-bias-pct")
}

// BenchmarkExtensionWriteRatioSensitivity runs the paper's deferred
// experiment: how the 1-2-1 saturation point moves with write ratio.
func BenchmarkExtensionWriteRatioSensitivity(b *testing.B) {
	var shift float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "wrsens" {
			benchmark rubis; platform emulab; appserver jonas;
			topologies 1-2-1;
			workload { users 300 to 1100 step 200; writeratio 0 to 60 step 60; }
		}`)
		low, okL := bottleneck.SaturationUsers(c.Results().RTvsUsers("wrsens", "1-2-1", 0), 3)
		high, okH := bottleneck.SaturationUsers(c.Results().RTvsUsers("wrsens", "1-2-1", 60), 3)
		if !okL {
			b.Fatal("w=0 never saturated")
		}
		if !okH {
			high = 1100
		}
		if high <= low {
			b.Fatalf("higher write ratio should push saturation out: %g vs %g", low, high)
		}
		shift = high - low
	}
	b.ReportMetric(shift, "saturation-shift-users")
}

// ---------------------------------------------------------------------
// Microbenchmarks of the substrate.
// ---------------------------------------------------------------------

func BenchmarkStationPipeline(b *testing.B) {
	k := sim.NewKernel(1)
	s := sim.NewStation(k, sim.StationConfig{Name: "S", Servers: 2, Speed: 1})
	remaining := b.N
	var feed func()
	feed = func() {
		s.Submit(0.001, func(bool, float64, float64) {
			remaining--
			if remaining > 0 {
				feed()
			}
		})
	}
	b.ResetTimer()
	feed()
	k.Run(1e18)
}

// BenchmarkStationMultiResource drives the pooled multi-resource request
// path: every request crosses the station's network link, its CPU, and
// its disk in sequence. Steady state must stay allocation-free (the
// resJob pool recycles the per-request leg state), which benchreg gates
// via allocs/op.
func BenchmarkStationMultiResource(b *testing.B) {
	k := sim.NewKernel(1)
	s := sim.NewStation(k, sim.StationConfig{Name: "S", Servers: 2, Speed: 1})
	s.AttachDisk(sim.NewResource(k, "S/disk", 1))
	s.AttachNet(sim.NewResource(k, "S/net", 1e6))
	remaining := b.N
	var feed func()
	feed = func() {
		s.SubmitRes(0.001, 0.0005, 200, func(bool, float64, float64) {
			remaining--
			if remaining > 0 {
				feed()
			}
		})
	}
	b.ResetTimer()
	feed()
	k.Run(1e18)
}

// BenchmarkDiskBoundTrial runs a full trial of a demands-declaring
// experiment: the DB disk is the contended resource. Covers the
// spec→deployment→resource-attachment→monitor path end to end.
func BenchmarkDiskBoundTrial(b *testing.B) {
	c := mustCharacterizer(b)
	doc, err := spec.Parse(`experiment "diskpipe" {
		benchmark rubbos; platform emulab;
		workload { users 300; writeratio 15; }
		demands { db { disk 9ms; } }
	}`)
	if err != nil {
		b.Fatal(err)
	}
	e := doc.Experiments[0]
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Runner().RunTrialAt(e, topo, 300, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovSession(b *testing.B) {
	model, err := rubis.Bidding(rubis.JOnAS)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	sess := model.NewSession(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Next(rng)
	}
}

func BenchmarkTBLParse(b *testing.B) {
	src := core.PaperSuite()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := spec.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMOFCatalogLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cim.LoadCatalog(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMuliniGenerate122(b *testing.B) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.Parse(core.RubisBaselineJOnASTBL)
	if err != nil {
		b.Fatal(err)
	}
	topo := spec.Topology{Web: 1, App: 2, DB: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.GenerateOne(doc.Experiments[0], topo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullTrialPipeline(b *testing.B) {
	c := mustCharacterizer(b)
	doc, err := spec.Parse(`experiment "pipe" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		b.Fatal(err)
	}
	e := doc.Experiments[0]
	topo := spec.Topology{Web: 1, App: 1, DB: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Runner().RunTrialAt(e, topo, 100, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelTrialSweep runs one deployment's full workload grid
// through the parallel trial executor (TrialParallel workers, one DES
// kernel per trial). The stored results are bit-identical to a
// sequential sweep; the benchmark measures the wall-clock of the
// parallel path itself.
func BenchmarkParallelTrialSweep(b *testing.B) {
	c, err := New(Options{TimeScale: benchScale, TrialParallel: 4})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.Parse(`experiment "parsweep" {
		benchmark rubis; platform emulab; appserver jonas;
		workload { users 50 to 200 step 50; writeratio 5 to 15 step 10; }
	}`)
	if err != nil {
		b.Fatal(err)
	}
	e := doc.Experiments[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RunExperiment(e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Results().Len()), "grid-points")
}

var _ = fmt.Sprintf // fmt is used by several benches' failure paths

// BenchmarkAblationDiscipline contrasts FCFS (the calibrated model) with
// processor sharing at the same load: means agree (both are M/M/1-like
// with exponential demands) but PS flattens the tail, because short
// requests no longer wait behind long ones.
func BenchmarkAblationDiscipline(b *testing.B) {
	var fcfsP90, psP90 float64
	for i := 0; i < b.N; i++ {
		demands := []float64{0.005, 0.005, 0.005, 0.12} // mixed sizes
		run := func(ps bool) float64 {
			k := sim.NewKernel(17)
			var submit func(demand float64, done func(float64))
			if ps {
				st := sim.NewPSStation(k, sim.StationConfig{Name: "PS", Servers: 1, Speed: 1})
				submit = func(demand float64, done func(float64)) {
					start := k.Now()
					st.Submit(demand, func(bool, float64, float64) { done(k.Now() - start) })
				}
			} else {
				st := sim.NewStation(k, sim.StationConfig{Name: "F", Servers: 1, Speed: 1, Deterministic: true})
				submit = func(demand float64, done func(float64)) {
					start := k.Now()
					st.Submit(demand, func(bool, float64, float64) { done(k.Now() - start) })
				}
			}
			sample := make([]float64, 0, 4000)
			rng := rand.New(rand.NewPCG(17, 17))
			var arrivals func()
			n := 0
			arrivals = func() {
				if n >= 4000 {
					return
				}
				n++
				d := demands[rng.IntN(len(demands))]
				submit(d, func(sojourn float64) { sample = append(sample, sojourn) })
				k.Schedule(rng.ExpFloat64()*0.05, arrivals)
			}
			k.Schedule(0, arrivals)
			k.Run(1e9)
			// p90 by sorting.
			if len(sample) == 0 {
				b.Fatal("no samples")
			}
			sortFloats(sample)
			return sample[int(float64(len(sample))*0.9)]
		}
		fcfsP90 = run(false)
		psP90 = run(true)
	}
	b.ReportMetric(fcfsP90*1000, "fcfs-p90-ms")
	b.ReportMetric(psP90*1000, "ps-p90-ms")
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BenchmarkAblationStickySessions contrasts per-request balancing with
// mod_jk sticky sessions when one of two app servers fails mid-run:
// stickiness concentrates the damage on the pinned cohort.
func BenchmarkAblationStickySessions(b *testing.B) {
	var stickyErr, rrErr float64
	for i := 0; i < b.N; i++ {
		model, err := rubis.Bidding(rubis.JOnAS)
		if err != nil {
			b.Fatal(err)
		}
		run := func(sticky bool) float64 {
			k := sim.NewKernel(23)
			mk := func(name string, n int, speed float64) []*sim.Station {
				out := make([]*sim.Station, n)
				for j := range out {
					out[j] = sim.NewStation(k, sim.StationConfig{Name: name, Servers: 1, Speed: speed})
				}
				return out
			}
			nt := &sim.NTier{
				Web:       sim.NewTier(k, "web", sim.RoundRobin, mk("WEB", 1, 1)),
				App:       sim.NewTier(k, "app", sim.RoundRobin, mk("APP", 2, 1)),
				DB:        sim.NewRAIDb(k, sim.RoundRobin, mk("DB", 1, 0.2)),
				StickyApp: sticky,
			}
			d := sim.NewDriver(k, nt, model, sim.DriverConfig{Users: 300, RampUp: 2}, 23)
			d.Start()
			k.Run(5)
			d.BeginMeasurement()
			k.Schedule(5, nt.App.Stations()[1].Fail)
			k.Run(k.Now() + 30)
			d.EndMeasurement()
			total := float64(d.ResponseTimes().Count()) + float64(d.Errors())
			if total == 0 {
				return 0
			}
			return float64(d.Errors()) / total
		}
		stickyErr = run(true)
		rrErr = run(false)
		if stickyErr <= 0 || rrErr <= 0 {
			b.Fatal("failure produced no errors")
		}
	}
	b.ReportMetric(stickyErr*100, "sticky-error-pct")
	b.ReportMetric(rrErr*100, "roundrobin-error-pct")
}

// BenchmarkMVAPredictionGap measures the observed-vs-predicted
// response-time ratio below saturation: near 1 where MVA is valid.
func BenchmarkMVAPredictionGap(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		tbl := `experiment "mvagap" {
			benchmark rubis; platform emulab; appserver jonas;
			workload { users 120; writeratio 15; }
		}`
		mustRun(b, c, tbl)
		doc, err := spec.Parse(tbl)
		if err != nil {
			b.Fatal(err)
		}
		pred, err := c.Predict(doc.Experiments[0], spec.Topology{Web: 1, App: 1, DB: 1}, 15, 120)
		if err != nil {
			b.Fatal(err)
		}
		obs, ok := c.Results().Get(store.Key{
			Experiment: "mvagap", Topology: "1-1-1", Users: 120, WriteRatioPct: 15,
		})
		if !ok || obs.AvgRTms <= 0 {
			b.Fatal("observation missing")
		}
		ratio = pred.ResponseTimeMS / obs.AvgRTms
	}
	b.ReportMetric(ratio, "predicted-over-observed")
}

// BenchmarkExtensionRubbosDBScaleout runs the RUBBoS scale-out the
// paper's conclusion mentions ("for RUBBoS also on the bottleneck the
// database server"): growing the DB tier relieves the 85/15 mix's
// bottleneck, sub-linearly because of RAIDb-1 write broadcast.
func BenchmarkExtensionRubbosDBScaleout(b *testing.B) {
	var firstDB, secondDB float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "rbso" {
			benchmark rubbos; platform emulab; mix submission;
			topologies 1-1-1, 1-1-2, 1-1-3;
			workload { users 4500; writeratio 15; }
		}`)
		rt := func(topo string) float64 {
			r, ok := c.Results().Get(store.Key{
				Experiment: "rbso", Topology: topo, Users: 4500, WriteRatioPct: 15,
			})
			if !ok || r.AvgRTms <= 0 {
				b.Fatalf("missing %s", topo)
			}
			return r.AvgRTms
		}
		base := rt("1-1-1")
		firstDB = bottleneck.Improvement(base, rt("1-1-2"))
		secondDB = bottleneck.Improvement(rt("1-1-2"), rt("1-1-3"))
		if firstDB < 20 {
			b.Fatalf("second DB should relieve the RUBBoS bottleneck: %.1f%%", firstDB)
		}
		if secondDB >= firstDB {
			b.Fatalf("DB scale-out should be sub-linear: +%.1f%% then +%.1f%%", firstDB, secondDB)
		}
	}
	b.ReportMetric(firstDB, "second-db-improvement-pct")
	b.ReportMetric(secondDB, "third-db-improvement-pct")
}

// BenchmarkExtensionRohanCrossPlatform replays the paper's remark that
// RUBBoS results on Rohan were "compatible with previous experiments":
// the same workload on Rohan's fast dual-CPU blades shows no DB knee in
// the range where the Emulab 600 MHz database saturates.
func BenchmarkExtensionRohanCrossPlatform(b *testing.B) {
	var emulabCPU, rohanCPU float64
	for i := 0; i < b.N; i++ {
		c := mustCharacterizer(b)
		mustRun(b, c, `experiment "xplat-emulab" {
			benchmark rubbos; platform emulab; mix read-only;
			workload { users 3000; }
		}
		experiment "xplat-rohan" {
			benchmark rubbos; platform rohan; mix read-only;
			workload { users 3000; }
		}`)
		get := func(set string) store.Result {
			r, ok := c.Results().Get(store.Key{Experiment: set, Topology: "1-1-1", Users: 3000})
			if !ok {
				b.Fatalf("missing %s", set)
			}
			return r
		}
		emulabCPU = get("xplat-emulab").TierCPU["db"]
		rohanCPU = get("xplat-rohan").TierCPU["db"]
		if emulabCPU < 70 {
			b.Fatalf("emulab DB should be near saturation at 3000 read-only users: %.1f%%", emulabCPU)
		}
		if rohanCPU > emulabCPU/2 {
			b.Fatalf("rohan's 2x3.2GHz DB should be comfortable: %.1f%% vs %.1f%%", rohanCPU, emulabCPU)
		}
	}
	b.ReportMetric(emulabCPU, "emulab-db-cpu-pct")
	b.ReportMetric(rohanCPU, "rohan-db-cpu-pct")
}

// ---------------------------------------------------------------------
// PR 6: fluid-engine scalability.
// ---------------------------------------------------------------------

// BenchmarkFluidKneeSearchMillionUsers locates the SLO knee of the
// shipped RUBBoS baseline with a one-million-user upper bracket, every
// trial running on the aggregated fluid engine. The point of the fluid
// approximation is exactly this: trial cost independent of population,
// so a knee search over six orders of magnitude of users finishes in
// seconds where per-session DES trials would take hours.
func BenchmarkFluidKneeSearchMillionUsers(b *testing.B) {
	data, err := os.ReadFile("specs/rubbos-baseline.tbl")
	if err != nil {
		b.Fatal(err)
	}
	doc, err := spec.Parse(string(data))
	if err != nil {
		b.Fatal(err)
	}
	e := doc.Experiments[0] // rubbos-readonly
	var knee, trials int
	for i := 0; i < b.N; i++ {
		c, err := New(Options{TimeScale: benchScale, ScalingEngine: "fluid"})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Runner().KneeSearch(e, spec.Topology{Web: 1, App: 1, DB: 1},
			0, 1000, 500, 1_000_000, 1000)
		if err != nil {
			b.Fatal(err)
		}
		knee, trials = res.Users, res.Trials
		if knee < 500 || knee >= 1_000_000 {
			b.Fatalf("knee %d outside the bracket", knee)
		}
		// O(log n): anchors plus one probe per halving of a ~1M bracket.
		if trials > 14 {
			b.Fatalf("search spent %d trials, want <= 14", trials)
		}
	}
	b.ReportMetric(float64(knee), "knee-users")
	b.ReportMetric(float64(trials), "trials")
}
