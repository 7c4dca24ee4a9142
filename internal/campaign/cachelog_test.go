package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"elba/internal/experiment"
	"elba/internal/store"
)

// logKey is the i-th distinct key the cache log tests memoize.
func logKey(i int) experiment.TrialKey {
	return experiment.TrialKey{SpecHash: "cache-log", Topology: "1-2-1", Users: 100, Engine: "des", Seed: uint64(i + 1)}
}

// logEntry is the result memoized under logKey(i).
func logEntry(i int) store.Result {
	r := fullResult()
	r.Key.Users = 100 + i
	return r
}

// fillCache memoizes logKey(i) for every i in keys, each a miss.
func fillCache(t testing.TB, c *Cache, keys ...int) {
	t.Helper()
	for _, i := range keys {
		if _, hit, err := c.Do(logKey(i), func() (store.Result, error) { return logEntry(i), nil }); err != nil || hit {
			t.Fatalf("key %d: hit=%v err=%v, want a miss", i, hit, err)
		}
	}
}

// openLoaded opens the cache in dir and checks that it loaded want entries.
func openLoaded(t testing.TB, dir string, want int) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Loaded; got != want {
		t.Fatalf("opened cache loaded %d entries, want %d", got, want)
	}
	return c
}

// checkHits requires every key in keys to hit c with its logEntry.
func checkHits(t testing.TB, c *Cache, keys ...int) {
	t.Helper()
	for _, i := range keys {
		res, hit, err := c.Do(logKey(i), func() (store.Result, error) {
			return store.Result{}, fmt.Errorf("key %d recomputed", i)
		})
		if err != nil || !hit {
			t.Fatalf("key %d: hit=%v err=%v, want a hit", i, hit, err)
		}
		if !reflect.DeepEqual(res, logEntry(i)) {
			t.Fatalf("key %d replays a different result", i)
		}
	}
}

// TestCacheDirHoldsOneLog: a cache directory holds one file, cache.log,
// from its first open on, and an entry file of the older layout in it is
// not read.
func TestCacheDirHoldsOneLog(t *testing.T) {
	dir := t.TempDir()
	for n := 0; n <= 40; n += 20 {
		c := openLoaded(t, dir, n)
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(names) != 1 || filepath.Base(names[0]) != cacheLogName {
			t.Fatalf("cache dir holds %v (%v), want only %s", names, err, cacheLogName)
		}
		keys := make([]int, 20)
		for i := range keys {
			keys[i] = n + i
		}
		fillCache(t, c, keys...)
	}
	legacy, err := json.Marshal(diskEntry{Key: logKey(99), Result: mustMarshal(t, logEntry(99))})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, KeyID(logKey(99))+".json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	fillCache(t, openLoaded(t, dir, 60), 99)
}

// TestCacheLogTornTail cuts the log at every byte offset inside its last
// frame: each cut reopens with the earlier entries, appends after them,
// and a further reopen loads all of them.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	fillCache(t, openLoaded(t, dir, 0), 0, 1, 2)
	path := filepath.Join(dir, cacheLogName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(full, cacheLogFrames.magic)
	if len(ends) != 3 || ends[2] != int64(len(full)) {
		t.Fatalf("log of %d bytes has frame ends %v, want 3 ending at its size", len(full), ends)
	}
	for cut := ends[1] + 1; cut < ends[2]; cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fillCache(t, openLoaded(t, dir, 2), 3)
		checkHits(t, openLoaded(t, dir, 3), 0, 1, 3)
	}
}

// TestCacheLogRejectsCorruption flips each byte of a committed frame's
// checksum and payload in turn: OpenCache must fail, naming the file and
// the record.
func TestCacheLogRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	fillCache(t, openLoaded(t, dir, 0), 0, 1, 2)
	path := filepath.Join(dir, cacheLogName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(full, cacheLogFrames.magic)
	// Record 1 starts at ends[0] with its length prefix; the checksum
	// follows.
	_, prefix := binary.Uvarint(full[ends[0]:])
	want := fmt.Sprintf("%s: record 1:", path)
	for off := ends[0] + int64(prefix); off < ends[1]; off++ {
		data := bytes.Clone(full)
		data[off] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCache(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("byte %d flipped: OpenCache error %v, want one naming %q", off, err, want)
		}
	}
}

// TestFrameLogLengthPastEndIsCorruption flips bit 0x20 of record 1's
// second length byte in a three-record cache log and result log, so that
// its length runs past the end of the file while record 2 follows
// intact. A crash cannot leave that, so opening must fail, naming the
// file and record 1, and leave the file as it was.
func TestFrameLogLengthPastEndIsCorruption(t *testing.T) {
	cacheDir := t.TempDir()
	fillCache(t, openLoaded(t, cacheDir, 0), 0, 1, 2)
	resultPath := filepath.Join(t.TempDir(), "r.log")
	l, err := OpenResultLog(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(logResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	logs := []struct {
		path, magic string
		open        func() error
	}{
		{filepath.Join(cacheDir, cacheLogName), cacheLogFrames.magic, func() error {
			_, err := OpenCache(cacheDir)
			return err
		}},
		{resultPath, resultLogMagic, func() error {
			_, err := OpenResultLog(resultPath)
			return err
		}},
		{resultPath, resultLogMagic, func() error {
			_, err := ReplayResultLog(resultPath, nil)
			return err
		}},
	}
	for _, lg := range logs {
		full, err := os.ReadFile(lg.path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(full, lg.magic)
		if len(ends) != 3 {
			t.Fatalf("%s holds %d frames, want 3", lg.path, len(ends))
		}
		data := bytes.Clone(full)
		data[ends[0]+1] ^= 0x20
		size, prefix := binary.Uvarint(data[ends[0]:])
		if prefix < 2 || ends[0]+int64(prefix)+4+int64(size) <= int64(len(data)) {
			t.Fatalf("%s: record 1's flipped length %d (%d bytes) does not run past the end of %d bytes", lg.path, size, prefix, len(data))
		}
		if err := os.WriteFile(lg.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s: record 1:", lg.path)
		if err := lg.open(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("open error %v, want one naming %q", err, want)
		}
		if after, err := os.ReadFile(lg.path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("%s: a failed open changed the file (%v)", lg.path, err)
		}
		if err := os.WriteFile(lg.path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheLogZeroFilledTailIsTorn cuts a three-entry cache log inside its
// last frame and pads it with zero bytes, as a crash can leave a file's
// last block. Five zero bytes would read as an empty frame with a valid
// checksum, so this checks that the torn tail is still cut, not taken for
// corruption.
func TestCacheLogZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	fillCache(t, openLoaded(t, dir, 0), 0, 1, 2)
	path := filepath.Join(dir, cacheLogName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(full, cacheLogFrames.magic)
	if len(ends) != 3 {
		t.Fatalf("log holds %d frames, want 3", len(ends))
	}
	torn := append(bytes.Clone(full[:ends[1]+10]), make([]byte, 16)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	openLoaded(t, dir, 2)
	if fi, err := os.Stat(path); err != nil || fi.Size() != ends[1] {
		t.Fatalf("after open the log holds %v bytes (%v), want the %d committed", fi.Size(), err, ends[1])
	}
}

// TestCacheLogConcurrentAppends has two caches on one directory miss on
// overlapping key sets at once, from four goroutines each; run it under
// -race. A third open must load the union.
func TestCacheLogConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{openLoaded(t, dir, 0), openLoaded(t, dir, 0)}
	var wg sync.WaitGroup
	for ci, c := range caches {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := ci*20 + g; i < ci*20+40; i += 4 {
					if _, _, err := c.Do(logKey(i), func() (store.Result, error) { return logEntry(i), nil }); err != nil {
						t.Error(err)
					}
				}
			}()
		}
	}
	wg.Wait()
	union := make([]int, 60)
	for i := range union {
		union[i] = i
	}
	checkHits(t, openLoaded(t, dir, 60), union...)
}

// FuzzCacheLogOpen opens a cache over arbitrary log bytes: it must never
// panic, and an accepted log must be left a committed prefix — a second
// open loads the same entries without changing the file, and a new
// entry appended after them is loaded by the next open.
func FuzzCacheLogOpen(f *testing.F) {
	dir := f.TempDir()
	fillCache(f, openLoaded(f, dir, 0), 0, 1, 2)
	three, err := os.ReadFile(filepath.Join(dir, cacheLogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(three)
	f.Add(three[:len(three)-5])
	f.Add(three[:len(cacheLogFrames.magic)+1])
	f.Add([]byte(cacheLogFrames.magic))
	f.Add([]byte(resultLogMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, cacheLogName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			return
		}
		n := c.Stats().Loaded
		opened, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again := openLoaded(t, dir, n)
		if after, _ := os.ReadFile(path); !bytes.Equal(after, opened) {
			t.Fatalf("a second open changed the log: %d → %d bytes", len(opened), len(after))
		}
		if !reflect.DeepEqual(c.entries, again.entries) {
			t.Fatal("a second open loaded different entries")
		}
		fresh := logKey(1000)
		if _, ok := again.entries[KeyID(fresh)]; ok {
			return
		}
		if _, _, err := again.Do(fresh, func() (store.Result, error) { return logEntry(0), nil }); err != nil {
			t.Fatal(err)
		}
		openLoaded(t, dir, n+1)
	})
}
