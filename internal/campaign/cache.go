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
// is stable across processes.
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
		strconv.FormatBool(k.SketchRT),
	} {
		io.WriteString(h, part)
		h.Write([]byte{0}) // unambiguous field boundaries
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
	// Loaded is the number of distinct entries restored from disk at open
	// time.
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
// With a directory attached, every fresh entry is also appended to
// <dir>/cache.log as one frame of the result log's format (frameLog, with
// its own magic) and fsynced, and OpenCache replays the log on start, so
// memoization survives restarts and separate submissions. Caches in one
// process or several may share a directory: their appends interleave
// whole frames, and a later open loads the union.
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

// diskEntry is the on-disk form of one memoized trial, a cache log
// record: the full key for auditability, plus the result's canonical
// JSON.
type diskEntry struct {
	Key    experiment.TrialKey `json:"key"`
	Result json.RawMessage     `json:"result"`
}

// cacheLogName names the log in a cache directory.
const cacheLogName = "cache.log"

var cacheLogFrames = frameLog{kind: "cache log", magic: "ELBACACHE1\n"}

// OpenCache creates the directory if needed and loads its cache log into
// the index, keying each entry by the KeyID of its stored key; a key
// logged twice keeps its last entry. Files of the older one-file-per-entry
// layout (<id>.json) are not read; their points recompute, byte-identically,
// on their next miss.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open cache: %w", err)
	}
	c := NewCache()
	c.dir = dir
	f, _, err := cacheLogFrames.open(filepath.Join(dir, cacheLogName), func(payload []byte) error {
		var ent diskEntry
		if err := json.Unmarshal(payload, &ent); err != nil {
			return err
		}
		c.entries[KeyID(ent.Key)] = cacheEntry{data: ent.Result}
		return nil
	})
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return nil, err
	}
	c.loaded = len(c.entries)
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
			if werr := c.persist(k, data); werr != nil {
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

// persist appends one entry to the cache log. The log is opened for
// each append, so a cache holds no file between misses.
func (c *Cache) persist(k experiment.TrialKey, result []byte) error {
	payload, err := json.Marshal(diskEntry{Key: k, Result: result})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(c.dir, cacheLogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	err = appendFrame(f, payload)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
