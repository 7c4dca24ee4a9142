package report

import (
	"strings"
	"testing"

	"elba/internal/store"
)

func engineResult(users int, engine string, x, p50, p90, appCPU float64) store.Result {
	return store.Result{
		Key:        store.Key{Experiment: "eng", Topology: "1-1-1", Users: users, WriteRatioPct: 15},
		Completed:  true,
		Engine:     engine,
		Throughput: x,
		AvgRTms:    p50 * 1.1,
		P50ms:      p50,
		P90ms:      p90,
		TierCPU:    map[string]float64{"web": 20, "app": appCPU, "db": 30},
	}
}

func TestTableEngineSummary(t *testing.T) {
	st := store.New()
	st.Put(engineResult(100, "", 40, 80, 120, 50))
	st.Put(engineResult(1000, "fluid", 60, 200, 300, 90))
	failed := engineResult(2000, "fluid", 0, 0, 0, 0)
	failed.Completed = false
	st.Put(failed)

	out := TableEngineSummary(st, "eng")
	if !strings.Contains(out, "des") {
		t.Errorf("untagged result not labeled des:\n%s", out)
	}
	if !strings.Contains(out, "fluid") {
		t.Errorf("fluid engine missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 3 data rows.
	if len(lines) < 5 {
		t.Fatalf("summary too short:\n%s", out)
	}
	// Rows are in user order and the failed trial renders dashes.
	if !strings.Contains(lines[len(lines)-1], "2000") ||
		!strings.Contains(lines[len(lines)-1], "-") {
		t.Errorf("failed fluid trial row wrong:\n%s", out)
	}
}
