package report

import (
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "BB")
	tb.AddRow("x", "y")
	tb.AddRow("longer") // short row padded
	out := tb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("missing rule:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func catalogAndBundle(t *testing.T) (*cim.Catalog, *mulini.Bundle) {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(`experiment "rep" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 2; db 2; }
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.Generate(doc.Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	return cat, ds[0].Bundle
}

func TestTable1And2(t *testing.T) {
	cat, _ := catalogAndBundle(t)
	t1 := Table1Software(cat)
	for _, want := range []string{"rubis", "rubbos", "mysql 4.1 Max", "weblogic 8.1", "apache"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2Hardware(cat)
	for _, want := range []string{"warp", "rohan", "emulab", "2 x 3060 MHz", "600 MHz", "56"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestTable3(t *testing.T) {
	out := Table3Scale([]ScaleRow{{
		Set: "rubis-baseline", Figure: "Figure 1",
		Scale: mulini.ScaleReport{
			Configurations: 1, MachineCount: 4,
			ScriptLines: 2500,
			ConfigLines: 150, ConfigFiles: 9,
		},
		CollectedBytes: 3 << 20,
	}})
	for _, want := range []string{"rubis-baseline", "2.5 KLOC", "3 MB", "150 (9 files)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4And5(t *testing.T) {
	_, b := catalogAndBundle(t)
	t4 := Table4Scripts(b)
	for _, want := range []string{"run.sh", "JONAS1_install.sh", "SYS_MON_JONAS1_ignition.sh"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
	t5 := Table5Configs(b)
	for _, want := range []string{"workers2.properties", "mysqldb-raidb1-elba.xml", "monitorlocal.properties"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}

func seededStore() *store.Store {
	st := store.New()
	for _, u := range []int{50, 100} {
		for _, w := range []float64{0, 10} {
			st.Put(store.Result{
				Key:        store.Key{Experiment: "e", Topology: "1-1-1", Users: u, WriteRatioPct: w},
				Completed:  true,
				AvgRTms:    float64(u) + w,
				Throughput: float64(u) / 7,
				TierCPU:    map[string]float64{"app": 50},
			})
		}
	}
	// one failed cell
	st.Put(store.Result{
		Key: store.Key{Experiment: "e", Topology: "1-1-1", Users: 150, WriteRatioPct: 0},
	})
	return st
}

func TestSurfaceGridAndCSV(t *testing.T) {
	st := seededStore()
	sf := st.RTSurface("e", "1-1-1")
	grid := SurfaceGrid("Figure 1. RUBiS response time", "ms", sf)
	if !strings.Contains(grid, "0%") || !strings.Contains(grid, "150") {
		t.Fatalf("grid missing axes:\n%s", grid)
	}
	if !strings.Contains(grid, "-") {
		t.Fatalf("failed cell should render as '-':\n%s", grid)
	}
	csv := SurfaceCSV(sf)
	if !strings.HasPrefix(csv, "write_ratio_pct,u50,u100,u150\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "0,50.00,100.00,\n") {
		t.Fatalf("csv rows wrong:\n%s", csv)
	}
}

func TestSeriesTableAndCSV(t *testing.T) {
	st := seededStore()
	s1 := Series{Name: "1-1-1", Points: st.RTvsUsers("e", "1-1-1", 0)}
	out := SeriesTable("Figure 5", "users", "ms", []Series{s1})
	if !strings.Contains(out, "1-1-1") || !strings.Contains(out, "150") {
		t.Fatalf("series table wrong:\n%s", out)
	}
	csv := SeriesCSV("users", []Series{s1})
	if !strings.HasPrefix(csv, "users,1-1-1\n50,50.00\n") {
		t.Fatalf("series csv wrong:\n%s", csv)
	}
	// Failed point renders as empty cell in CSV and "-" in table.
	if !strings.Contains(csv, "150,\n") {
		t.Fatalf("failed point should be empty in csv:\n%s", csv)
	}
}

func TestDifference(t *testing.T) {
	a := []store.SeriesPoint{{X: 1, Y: 10, OK: true}, {X: 2, Y: 20, OK: true}, {X: 3, Y: 5, OK: false}}
	b := []store.SeriesPoint{{X: 1, Y: 4, OK: true}, {X: 2, Y: 25, OK: true}, {X: 3, Y: 1, OK: true}}
	d := Difference("a-b", a, b)
	if len(d.Points) != 2 {
		t.Fatalf("difference points = %v", d.Points)
	}
	if d.Points[0].Y != 6 || d.Points[1].Y != -5 {
		t.Fatalf("difference values wrong: %v", d.Points)
	}
}

func TestTable6(t *testing.T) {
	out := Table6Improvement(1000, []int{1, 2}, []int{1, 2}, map[string]float64{
		"1-1": 1000, "2-1": 157, "1-2": 870,
	})
	if !strings.Contains(out, "84.3") {
		t.Fatalf("Table 6 missing headline improvement:\n%s", out)
	}
	if !strings.Contains(out, "13.0") {
		t.Fatalf("Table 6 missing db improvement:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cell should render as '-':\n%s", out)
	}
}

func TestTable7(t *testing.T) {
	st := store.New()
	st.Put(store.Result{
		Key:       store.Key{Experiment: "e", Topology: "1-2-1", Users: 300, WriteRatioPct: 15},
		Completed: true, Throughput: 41.0,
	})
	st.Put(store.Result{
		Key: store.Key{Experiment: "e", Topology: "1-2-1", Users: 800, WriteRatioPct: 15},
		// failed: blank square
	})
	out := Table7Throughput(st, "e", 15, []string{"1-2-1"}, []int{300, 800, 900})
	if !strings.Contains(out, "41.0") {
		t.Fatalf("Table 7 missing throughput:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	// 800 failed → blank; 900 never run → "-".
	if !strings.Contains(last, "-") {
		t.Fatalf("never-run cell should be '-': %q", last)
	}
	if strings.Count(last, "41.0") != 1 {
		t.Fatalf("row wrong: %q", last)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{512, "512 B"},
		{2048, "2 KB"},
		{3 << 20, "3 MB"},
	}
	for _, c := range cases {
		if got := formatBytes(c.n); got != c.want {
			t.Errorf("formatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestInteractionBreakdown(t *testing.T) {
	r := store.Result{
		Key: store.Key{Experiment: "e", Topology: "1-1-1", Users: 100, WriteRatioPct: 15},
		PerInteraction: map[string]float64{
			"Home": 12.5, "AboutMe": 90.1, "ViewItem": 40.0,
		},
	}
	out := InteractionBreakdown(r)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// lines: title, header, rule, then rows sorted slowest first.
	if !strings.Contains(lines[3], "AboutMe") || !strings.Contains(lines[5], "Home") {
		t.Fatalf("breakdown order wrong:\n%s", out)
	}
}

func TestSeriesChartIncludesPlot(t *testing.T) {
	st := seededStore()
	s1 := Series{Name: "1-1-1", Points: st.RTvsUsers("e", "1-1-1", 0)}
	out := SeriesChart("Figure 5", "users", "ms", []Series{s1})
	if !strings.Contains(out, "users  1-1-1") {
		t.Fatalf("table half missing:\n%s", out)
	}
	if !strings.Contains(out, "* 1-1-1") {
		t.Fatalf("plot half missing:\n%s", out)
	}
}
