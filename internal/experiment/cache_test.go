package experiment

import (
	"sync"
	"testing"

	"elba/internal/spec"
	"elba/internal/store"
)

// mapTrialCache is a TrialCache fake: a plain keyed map with no
// persistence and no cross-goroutine coalescing.
type mapTrialCache struct {
	mu sync.Mutex
	m  map[TrialKey]store.Result
}

func newMapTrialCache() *mapTrialCache {
	return &mapTrialCache{m: map[TrialKey]store.Result{}}
}

func (c *mapTrialCache) Do(k TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	c.mu.Lock()
	if res, ok := c.m[k]; ok {
		c.mu.Unlock()
		return res, true, nil
	}
	c.mu.Unlock()
	res, err := compute()
	if err != nil {
		return store.Result{}, false, err
	}
	c.mu.Lock()
	c.m[k] = res
	c.mu.Unlock()
	return res, false, nil
}

// keyRecorder is a TrialCache that records every key it is asked for and
// never hits.
type keyRecorder struct {
	mu   sync.Mutex
	keys []TrialKey
}

func (c *keyRecorder) Do(k TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	c.mu.Lock()
	c.keys = append(c.keys, k)
	c.mu.Unlock()
	res, err := compute()
	return res, false, err
}

// TestTrialKeysCarryTrialHash pins the spec part of every key a sweep, a
// knee search and a single point ask the cache for to e.TrialHash(): the
// runner computes it once per sweep or search, and the keys an on-disk
// cache stores must not change with that.
func TestTrialKeysCarryTrialHash(t *testing.T) {
	e := rubisExperiment(t, `topologies 1-1-1, 1-2-1; workload { users 50 to 100 step 50; writeratio 15; }`)
	r := testRunner(t)
	r.TrialParallel = 2
	rec := &keyRecorder{}
	r.TrialCache = rec
	if err := r.RunExperiment(e); err != nil {
		t.Fatal(err)
	}
	one := spec.Topology{Web: 1, App: 1, DB: 1}
	if _, err := r.KneeSearch(e, one, 15, 1e9, 50, 100, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunTrialAt(e, one, 75, 15); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) != 4+2+1 {
		t.Fatalf("cache saw %d keys, want 4 sweep points, 2 knee probes and 1 point", len(rec.keys))
	}
	want := e.TrialHash()
	for _, k := range rec.keys {
		if k.SpecHash != want {
			t.Fatalf("key %+v: spec hash %q, want e.TrialHash() %q", k, k.SpecHash, want)
		}
	}
}
