package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"elba/internal/experiment"
	"elba/internal/store"
)

// hitKey is the one key the hit-path tests memoize.
var hitKey = experiment.TrialKey{SpecHash: "hit-path", Topology: "1-2-1", Users: 300, Engine: "des"}

// fullResult is a result with every map and slice of store.Result
// filled and nothing the byte path keeps, as a hit decodes it.
func fullResult() store.Result {
	return store.Result{
		Key:            store.Key{Experiment: "hits", Topology: "1-2-1", Users: 300, WriteRatioPct: 15},
		Completed:      true,
		AvgRTms:        12.5,
		P50ms:          10,
		Throughput:     41.25,
		Requests:       12000,
		TierCPU:        map[string]float64{"web": 21.5, "app": 63.25, "db": 40},
		HostCPU:        map[string]float64{"web1": 21.5, "app1": 70, "app2": 56.5, "db1": 40},
		TierDisk:       map[string]float64{"db": 12},
		TierNet:        map[string]float64{"app": 3.5},
		HostDisk:       map[string]float64{"db1": 12},
		HostNet:        map[string]float64{"app1": 3.5},
		PerInteraction: map[string]float64{"ViewItem": 8.5, "PutBid": 31},
		FaultProfile:   "flaky-db",
		FaultEvents:    []string{"db1 slow x3 at 10s for 5s", "app2 down at 30s for 2s"},
		SLOAssert:      "rt_p90 < 100",
		SLOWindows:     12,
		SLOViolations:  2,
		SLOViolatedAt:  []float64{30, 45},
		ScaleEvents:    []store.ScaleEvent{{TSec: 30, Tier: "app", From: 2, To: 3}},
		DeployRetries:  1,
	}
}

// scribble overwrites every map value and slice element of r with its
// zero value and adds a zero-keyed map entry, so that a result sharing
// storage with r would show the write.
func scribble(r *store.Result) {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Map:
			for _, k := range f.MapKeys() {
				f.SetMapIndex(k, reflect.Zero(f.Type().Elem()))
			}
			f.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.Zero(f.Type().Elem()))
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).Set(reflect.Zero(f.Type().Elem()))
			}
		}
	}
}

func mustMarshal(t *testing.T, r store.Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheHitsDoNotAlias writes to every map and slice of the first two
// hits on a key; the third hit must still equal the miss's result and
// marshal to its bytes.
func TestCacheHitsDoNotAlias(t *testing.T) {
	v := reflect.ValueOf(fullResult())
	for i := 0; i < v.NumField(); i++ {
		if k := v.Field(i).Kind(); (k == reflect.Map || k == reflect.Slice) && v.Field(i).Len() == 0 {
			t.Fatalf("fullResult leaves %s empty", v.Type().Field(i).Name)
		}
	}
	c := NewCache()
	miss, hit, err := c.Do(hitKey, func() (store.Result, error) { return fullResult(), nil })
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v, want a miss", hit, err)
	}
	for i := 0; i < 2; i++ {
		res, hit, err := c.Do(hitKey, nil)
		if err != nil || !hit {
			t.Fatalf("hit %d: hit=%v err=%v", i+1, hit, err)
		}
		scribble(&res)
	}
	third, hit, err := c.Do(hitKey, nil)
	if err != nil || !hit {
		t.Fatalf("hit 3: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(third, miss) {
		t.Fatalf("third hit differs from the miss's result:\n%+v\nwant\n%+v", third, miss)
	}
	if !bytes.Equal(mustMarshal(t, third), mustMarshal(t, miss)) {
		t.Fatal("third hit marshals differently from the miss's result")
	}
	if s := c.Stats(); s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits / 1 miss", s)
	}
}

// hasRefs reports whether a value of type t can share storage with a
// copy of it made by assignment. Strings are immutable, so sharing them
// is safe.
func hasRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Map, reflect.Slice, reflect.Pointer, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestCloneResultCoversEveryField walks store.Result's fields: every map
// and slice must come out of cloneResult with its own storage and hold
// only values, every pointer must keep its entry on the byte path, and
// no other field may hold a reference. A field added to store.Result
// without one of the two fails here.
func TestCloneResultCoversEveryField(t *testing.T) {
	rt := reflect.TypeOf(store.Result{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		var r store.Result
		v := reflect.ValueOf(&r).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Map:
			m := reflect.MakeMap(f.Type)
			m.SetMapIndex(reflect.Zero(f.Type.Key()), reflect.Zero(f.Type.Elem()))
			v.Set(m)
			if hasRefs(f.Type.Key()) || hasRefs(f.Type.Elem()) {
				t.Errorf("%s: maps.Clone would share the references its entries hold", f.Name)
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(f.Type, 1, 1))
			if hasRefs(f.Type.Elem()) {
				t.Errorf("%s: slices.Clone would share the references its elements hold", f.Name)
			}
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
			if !keepsBytes(&r) {
				t.Errorf("%s: a pointer field that neither cloneResult copies nor keepsBytes keeps on the byte path", f.Name)
			}
			continue
		default:
			if hasRefs(f.Type) {
				t.Errorf("%s: a %s field that holds references cloneResult does not copy", f.Name, f.Type)
			}
			continue
		}
		if keepsBytes(&r) {
			t.Errorf("%s: a filled %s sends the entry down the byte path", f.Name, f.Type.Kind())
		}
		c := cloneResult(&r)
		if reflect.ValueOf(c).Field(i).UnsafePointer() == v.UnsafePointer() {
			t.Errorf("%s: cloneResult shares the %s", f.Name, f.Type.Kind())
		}
	}
}

// TestCacheSketchHitsReplayThroughDecode submits one streaming sweep
// three times. Its results carry response-time sketches, so their
// entries stay as bytes: the first and second hits decode them and must
// replay the run's stored bytes exactly.
func TestCacheSketchHitsReplayThroughDecode(t *testing.T) {
	svc := NewService(Config{Stream: true, Options: fastOptions()})
	defer svc.Close()
	var runs [3][]byte
	for i := range runs {
		c, err := svc.Submit(sweepA)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = campaignJSON(t, c)
	}
	if !bytes.Equal(runs[1], runs[0]) || !bytes.Equal(runs[2], runs[0]) {
		t.Fatal("a replayed streaming campaign stores different bytes from its first run")
	}
	cache := svc.Cache()
	if s := cache.Stats(); s.Misses != 5 || s.Hits != 10 {
		t.Fatalf("stats %+v, want 5 misses / 10 hits", s)
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for id, e := range cache.entries {
		if e.res != nil || e.data == nil {
			t.Fatalf("entry %s left the byte path after two hits", id)
		}
		var r store.Result
		if err := json.Unmarshal(e.data, &r); err != nil {
			t.Fatal(err)
		}
		if r.RTSketch == nil {
			t.Fatalf("entry %s carries no sketch", id)
		}
	}
}

// TestCacheConcurrentFirstHit has eight goroutines take the first hit of
// one key at once; run it under -race. Every one must get the miss's
// result and count as a hit.
func TestCacheConcurrentFirstHit(t *testing.T) {
	c := NewCache()
	miss, _, err := c.Do(hitKey, func() (store.Result, error) { return fullResult(), nil })
	if err != nil {
		t.Fatal(err)
	}
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		results [8]store.Result
		errs    [8]error
	)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var hit bool
			results[i], hit, errs[i] = c.Do(hitKey, nil)
			if errs[i] == nil && !hit {
				t.Errorf("goroutine %d missed", i)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(r, miss) {
			t.Fatalf("goroutine %d got a result that differs from the miss's", i)
		}
	}
	if s := c.Stats(); s.Hits != 8 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 8 hits / 1 miss", s)
	}
}
