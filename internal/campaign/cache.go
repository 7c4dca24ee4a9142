// Package campaign turns the characterizer into a service: a queue of
// TBL submissions fanned across a deterministic worker pool, backed by a
// content-addressed memo cache of trial results. Trials are pure
// functions of (trial-invariant spec hash, grid coordinates, seed), so
// overlapping sweeps — within a campaign, across concurrently running
// campaigns, or across separate submissions — reuse prior results
// byte-for-byte instead of re-simulating, and a knee search re-anchored
// over a previously swept bracket costs nothing.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"elba/internal/experiment"
	"elba/internal/store"
)

// KeyID is the content address of a trial key: the hex SHA-256 of its
// canonical field serialization. It names the cache entry in memory and
// its file on disk, and is stable across processes.
func KeyID(k experiment.TrialKey) string {
	h := sha256.New()
	for _, part := range []string{
		k.SpecHash,
		k.Topology,
		strconv.Itoa(k.Users),
		strconv.FormatFloat(k.WriteRatioPct, 'g', -1, 64),
		k.Engine,
		strconv.FormatFloat(k.TimeScale, 'g', -1, 64),
		strconv.FormatUint(k.Seed, 10),
		strconv.FormatUint(k.RootSeed, 10),
		k.FaultProfile,
		strconv.Itoa(k.TrialRetries),
		strconv.FormatFloat(k.TraceRate, 'g', -1, 64),
		strconv.Itoa(k.TraceExemplars),
	} {
		io.WriteString(h, part)
		h.Write([]byte{0}) // unambiguous field boundaries
	}
	// SketchRT contributes to the address only when set: sketch-free keys
	// hash exactly as they did before the field existed, so on-disk caches
	// written by older builds stay valid.
	if k.SketchRT {
		io.WriteString(h, "rtsketch")
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Entries is the number of memoized trials currently held.
	Entries int `json:"entries"`
	// Hits counts Do calls served without computing, including waiters
	// coalesced onto another caller's in-flight computation.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that computed and cached a fresh result.
	Misses uint64 `json:"misses"`
	// Loaded is the number of entries restored from disk at open time.
	Loaded int `json:"loaded"`
}

// Cache is the content-addressed trial memo shared by every campaign a
// service runs. A fresh entry is stored as the result's canonical JSON
// bytes. Its first hit decodes them and keeps the decoded result in their
// place, and that hit and every later one get a deep copy of it
// (cloneResult): a hit can never alias a cached result's maps or slices
// into a caller, and since the kept result is the decoded canonical JSON,
// a result replayed from the cache serializes byte-identically to the run
// that produced it. An entry whose result carries a response-time sketch
// or a trace report stays as bytes and is decoded on every hit, so those
// large decoded forms are never kept.
//
// Do is single-flight: however many campaigns request a key at once,
// exactly one computes it and the rest wait for that computation — which
// is what makes total hit/miss counts a pure function of the submitted
// workload (hits = requests − unique keys), independent of worker count
// and scheduling. Errors are never cached; a failing key stays
// retryable, and each waiter on a failed flight retries the key itself
// rather than inheriting a cancellation or fault from another campaign.
//
// With a directory attached, every fresh entry is also written to
// <id>.json (atomically, via rename), and OpenCache restores the index
// on start, so memoization survives restarts and separate submissions.
type Cache struct {
	dir string // "" = memory only

	mu      sync.Mutex
	entries map[string]cacheEntry // by KeyID
	flights map[string]chan struct{}

	hits   atomic.Uint64
	misses atomic.Uint64
	loaded int
}

// NewCache creates a memory-only cache.
func NewCache() *Cache {
	return &Cache{
		entries: map[string]cacheEntry{},
		flights: map[string]chan struct{}{},
	}
}

// cacheEntry is one memoized trial: the result's canonical JSON until
// its first hit, then, unless keepsBytes, the decoded result instead.
type cacheEntry struct {
	data []byte        // nil once decoded
	res  *store.Result // never handed to a caller; hits get a clone
}

// diskEntry is the on-disk form of one memoized trial: the full key for
// auditability and verification, plus the result's canonical JSON.
type diskEntry struct {
	Key    experiment.TrialKey `json:"key"`
	Result json.RawMessage     `json:"result"`
}

// OpenCache creates the directory if needed and loads every valid
// <id>.json entry into the index. Entries whose filename does not match
// the content address recomputed from their stored key are ignored (and
// left on disk for inspection) rather than trusted.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open cache: %w", err)
	}
	c := NewCache()
	c.dir = dir
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var ent diskEntry
		if err := json.Unmarshal(data, &ent); err != nil {
			continue // partial write or foreign file: skip, don't fail the open
		}
		id := KeyID(ent.Key)
		if id+".json" != filepath.Base(name) || len(ent.Result) == 0 {
			continue
		}
		c.entries[id] = cacheEntry{data: append([]byte(nil), ent.Result...)}
		c.loaded++
	}
	return c, nil
}

// Dir reports the persistence directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Entries: entries,
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Loaded:  c.loaded,
	}
}

// Do implements experiment.TrialCache with single-flight coalescing and
// optional persistence; see the Cache doc for the full contract.
func (c *Cache) Do(k experiment.TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	id := KeyID(k)
	for {
		c.mu.Lock()
		if e, ok := c.entries[id]; ok {
			c.mu.Unlock()
			res, err := c.hit(id, e)
			if err != nil {
				return store.Result{}, false, err
			}
			c.hits.Add(1)
			return res, true, nil
		}
		if done, ok := c.flights[id]; ok {
			c.mu.Unlock()
			// Another campaign is computing this key. Wait it out, then loop:
			// on success the entry is there (a hit); on failure this caller
			// takes over the flight and retries the computation itself.
			<-done
			continue
		}
		done := make(chan struct{})
		c.flights[id] = done
		c.mu.Unlock()

		res, err := compute()
		var data []byte
		if err == nil {
			data, err = json.Marshal(res)
		}
		c.mu.Lock()
		delete(c.flights, id)
		if err == nil {
			c.entries[id] = cacheEntry{data: data}
		}
		c.mu.Unlock()
		close(done)
		if err != nil {
			return store.Result{}, false, err
		}
		c.misses.Add(1)
		if c.dir != "" {
			if werr := c.persist(id, k, data); werr != nil {
				return store.Result{}, false, werr
			}
		}
		return res, false, nil
	}
}

// hit serves entry e of key id as a result the caller owns.
func (c *Cache) hit(id string, e cacheEntry) (store.Result, error) {
	if e.res != nil {
		return cloneResult(e.res), nil
	}
	res := new(store.Result)
	if err := json.Unmarshal(e.data, res); err != nil {
		return store.Result{}, fmt.Errorf("campaign: corrupt cache entry %s: %w", id, err)
	}
	if keepsBytes(res) {
		return *res, nil
	}
	// First hits racing on one key each decode and store an equal result;
	// whichever is stored last is kept.
	c.mu.Lock()
	c.entries[id] = cacheEntry{res: res}
	c.mu.Unlock()
	return cloneResult(res), nil
}

// keepsBytes reports whether r's entry stays as bytes: a decoded
// t-digest holds about 19 KB of buffers, far more than its JSON, and a
// trace report nests slices that a deep copy would have to walk.
func keepsBytes(r *store.Result) bool {
	return r.RTSketch != nil || r.Trace != nil
}

// cloneResult deep-copies r. Its maps and slices are copied; the
// strings in them are immutable and shared. Every other reference field
// of store.Result keeps its entry on the byte path (keepsBytes);
// TestCloneResultCoversEveryField fails when a new one does neither.
func cloneResult(r *store.Result) store.Result {
	out := *r
	out.TierCPU = maps.Clone(r.TierCPU)
	out.HostCPU = maps.Clone(r.HostCPU)
	out.TierDisk = maps.Clone(r.TierDisk)
	out.TierNet = maps.Clone(r.TierNet)
	out.HostDisk = maps.Clone(r.HostDisk)
	out.HostNet = maps.Clone(r.HostNet)
	out.PerInteraction = maps.Clone(r.PerInteraction)
	out.FaultEvents = slices.Clone(r.FaultEvents)
	out.SLOViolatedAt = slices.Clone(r.SLOViolatedAt)
	out.ScaleEvents = slices.Clone(r.ScaleEvents)
	return out
}

// persist writes one entry file atomically: a same-directory temp file
// renamed into place, so a crashed write can never leave a torn entry
// under a valid content address.
func (c *Cache) persist(id string, k experiment.TrialKey, result []byte) error {
	data, err := json.MarshalIndent(diskEntry{Key: k, Result: result}, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "."+id+".tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return os.Rename(tmp.Name(), filepath.Join(c.dir, id+".json"))
}

// String renders the stats one-line, for log lines and CLI summaries.
func (s CacheStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d entries, %d hits, %d misses", s.Entries, s.Hits, s.Misses)
	if s.Loaded > 0 {
		fmt.Fprintf(&b, " (%d loaded from disk)", s.Loaded)
	}
	return b.String()
}
