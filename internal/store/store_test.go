package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func mkResult(topo string, users int, wr float64, rt float64, ok bool) Result {
	return Result{
		Key:        Key{Experiment: "exp", Topology: topo, Users: users, WriteRatioPct: wr},
		Completed:  ok,
		AvgRTms:    rt,
		P90ms:      rt * 2,
		Throughput: float64(users) / 7.0,
		Requests:   int64(users * 10),
		TierCPU:    map[string]float64{"web": 5, "app": 50, "db": 20},
	}
}

func TestPutGetReplace(t *testing.T) {
	s := New()
	s.Put(mkResult("1-1-1", 100, 15, 120, true))
	r, ok := s.Get(Key{Experiment: "exp", Topology: "1-1-1", Users: 100, WriteRatioPct: 15})
	if !ok || r.AvgRTms != 120 {
		t.Fatalf("get = %+v, %v", r, ok)
	}
	// Replace same key.
	s.Put(mkResult("1-1-1", 100, 15, 200, true))
	if s.Len() != 1 {
		t.Fatalf("replace grew store: %d", s.Len())
	}
	r, _ = s.Get(r.Key)
	if r.AvgRTms != 200 {
		t.Fatalf("replace did not update: %g", r.AvgRTms)
	}
	if _, ok := s.Get(Key{Experiment: "none"}); ok {
		t.Fatalf("missing key found")
	}
}

func TestSeriesExtraction(t *testing.T) {
	s := New()
	// Insert out of order to confirm sorting.
	for _, u := range []int{300, 100, 200} {
		s.Put(mkResult("1-2-1", u, 15, float64(u), true))
	}
	pts := s.RTvsUsers("exp", "1-2-1", 15)
	if len(pts) != 3 || pts[0].X != 100 || pts[2].X != 300 {
		t.Fatalf("series = %+v", pts)
	}
	if pts[1].Y != 200 {
		t.Fatalf("series y wrong: %+v", pts[1])
	}
	cpu := s.TierCPUVsUsers("exp", "1-2-1", "app", 15)
	if cpu[0].Y != 50 {
		t.Fatalf("cpu series wrong: %+v", cpu[0])
	}
}

func TestFailedTrialsMarked(t *testing.T) {
	s := New()
	s.Put(mkResult("1-2-1", 700, 15, 900, true))
	fail := mkResult("1-2-1", 800, 15, 0, false)
	fail.FailReason = "connection pool exhausted"
	s.Put(fail)
	pts := s.RTvsUsers("exp", "1-2-1", 15)
	if pts[0].OK != true || pts[1].OK != false {
		t.Fatalf("OK flags wrong: %+v", pts)
	}
	if fail.ErrorRate() != 0 {
		t.Fatalf("zero-request error rate should be 0")
	}
	r := Result{Requests: 90, Errors: 10}
	if r.ErrorRate() != 0.1 {
		t.Fatalf("error rate = %g", r.ErrorRate())
	}
}

func TestTopologiesSortedByScaleOut(t *testing.T) {
	s := New()
	for _, topo := range []string{"1-12-2", "1-2-1", "1-8-1", "1-2-2", "1-10-3"} {
		s.Put(mkResult(topo, 100, 15, 100, true))
	}
	got := s.Topologies("exp")
	want := []string{"1-2-1", "1-2-2", "1-8-1", "1-10-3", "1-12-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topologies = %v, want %v", got, want)
		}
	}
}

func TestSurface(t *testing.T) {
	s := New()
	for _, u := range []int{50, 100} {
		for _, w := range []float64{0, 10} {
			s.Put(mkResult("1-1-1", u, w, float64(u)+w, true))
		}
	}
	sf := s.RTSurface("exp", "1-1-1")
	if len(sf.Users) != 2 || len(sf.WriteRatios) != 2 {
		t.Fatalf("surface axes = %v × %v", sf.Users, sf.WriteRatios)
	}
	// Cells[w=10][u=100] = 110
	if got := sf.Cells[1][1]; !got.OK || got.Value != 110 {
		t.Fatalf("cell = %+v", got)
	}
	cpu := s.CPUSurface("exp", "1-1-1", "app")
	if cpu.Cells[0][0].Value != 50 {
		t.Fatalf("cpu surface = %+v", cpu.Cells[0][0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := New()
	s.Put(mkResult("1-2-1", 100, 15, 100, true))
	s.Put(mkResult("1-2-1", 200, 15, 150, false))
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadJSON(data); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("loaded %d results", s2.Len())
	}
	r, ok := s2.Get(Key{Experiment: "exp", Topology: "1-2-1", Users: 100, WriteRatioPct: 15})
	if !ok || r.AvgRTms != 100 || r.TierCPU["app"] != 50 {
		t.Fatalf("round trip lost data: %+v", r)
	}
	if err := s2.LoadJSON([]byte("{not json")); err == nil {
		t.Fatalf("bad json accepted")
	}
}

// TestEngineFieldOmittedWhenEmpty pins the serialization contract the
// byte-identity goldens depend on: a result produced without a scaling
// clause (Engine == "") must marshal with no "engine" key at all, so
// pre-fluid stores and post-fluid stores of the same sweep are
// byte-identical. A fluid-tagged result must carry the key.
func TestEngineFieldOmittedWhenEmpty(t *testing.T) {
	des := mkResult("1-1-1", 100, 15, 100, true)
	data, err := json.Marshal(des)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"engine"`) {
		t.Fatalf("empty Engine serialized a key: %s", data)
	}
	fl := mkResult("1-1-1", 100, 15, 100, true)
	fl.Engine = "fluid"
	data, err = json.Marshal(fl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"engine":"fluid"`) {
		t.Fatalf("fluid Engine not serialized: %s", data)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != "fluid" {
		t.Fatalf("engine lost in round trip: %+v", back)
	}
}

func TestCSV(t *testing.T) {
	s := New()
	s.Put(mkResult("1-2-1", 100, 15, 123.4, true))
	csv := s.CSV()
	if !strings.HasPrefix(csv, "experiment,topology,users") {
		t.Fatalf("csv header missing")
	}
	if !strings.Contains(csv, "exp,1-2-1,100,15,true,123.40") {
		t.Fatalf("csv row wrong:\n%s", csv)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Put(mkResult("1-1-1", g*1000+i, 15, 1, true))
				s.RTvsUsers("exp", "1-1-1", 15)
				s.Len()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Experiment: "e", Topology: "1-2-1", Users: 100, WriteRatioPct: 15}
	if k.String() != "e/1-2-1/u=100/w=15%" {
		t.Fatalf("key string = %q", k.String())
	}
}

func TestSurfaceCorrelation(t *testing.T) {
	s := New()
	for _, u := range []int{50, 100, 150} {
		for _, w := range []float64{0, 30} {
			rt := float64(u)*2 - w // RT rises with users, falls with writes
			s.Put(Result{
				Key:       Key{Experiment: "e", Topology: "1-1-1", Users: u, WriteRatioPct: w},
				Completed: true,
				AvgRTms:   rt,
				TierCPU:   map[string]float64{"app": rt / 4}, // perfectly correlated
			})
		}
	}
	rtSurface := s.RTSurface("e", "1-1-1")
	cpuSurface := s.CPUSurface("e", "1-1-1", "app")
	r, n := SurfaceCorrelation(rtSurface, cpuSurface)
	if n != 6 {
		t.Fatalf("paired cells = %d", n)
	}
	if r < 0.999 {
		t.Fatalf("correlation = %g, want ≈1", r)
	}
}

// LoadJSON replaces the store's contents with serialized results.
func (s *Store) LoadJSON(data []byte) error {
	var rs []*Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = rs
	s.byKey = map[Key]*Result{}
	for _, r := range rs {
		s.byKey[r.Key] = r
	}
	return nil
}
