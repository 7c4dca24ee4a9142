package campaign

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"elba/internal/metrics"
	"elba/internal/store"
)

// logResult builds a distinguishable result for log tests, with a small
// sketch so the full round trip covers the digest codec too.
func logResult(i int) store.Result {
	d := metrics.NewTDigest(metrics.DefaultTDigestCompression)
	for j := 0; j < 50; j++ {
		d.Observe(float64(i*100 + j))
	}
	return store.Result{
		Key: store.Key{
			Experiment:    "log-test",
			Topology:      "1-2-1",
			Users:         100 * (i + 1),
			WriteRatioPct: 10,
		},
		Completed:  true,
		Requests:   int64(1000 + i),
		Throughput: float64(50 * (i + 1)),
		AvgRTms:    float64(i) * 1.5,
		TierCPU:    map[string]float64{"app": float64(10 + i)},
		RTSketch:   d,
	}
}

func TestResultLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c0001.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(logResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []store.Result
	replayed, err := ReplayResultLog(path, func(r store.Result) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != n || len(got) != n {
		t.Fatalf("replayed %d records, want %d", replayed, n)
	}
	for i, r := range got {
		want := logResult(i)
		if r.Key != want.Key || r.Requests != want.Requests {
			t.Errorf("record %d: got %+v", i, r.Key)
		}
		if r.RTSketch == nil || r.RTSketch.Count() != want.RTSketch.Count() {
			t.Errorf("record %d: sketch not round-tripped", i)
		} else if a, b := r.RTSketch.Quantile(0.5), want.RTSketch.Quantile(0.5); a != b {
			t.Errorf("record %d: sketch p50 %g != %g", i, a, b)
		}
	}
}

func TestResultLogReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(logResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", l2.Len())
	}
	if err := l2.Append(logResult(3)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	n, err := ReplayResultLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records after reopen, want 4", n)
	}
}

// TestResultLogTornTail: truncating the file mid-record (a simulated
// crash during the final write) must preserve the committed prefix, both
// for replay and for a reopen that appends after it.
func TestResultLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(logResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(full, resultLogMagic)
	if len(ends) != 5 {
		t.Fatalf("log holds %d frames, want 5", len(ends))
	}
	committed4 := ends[3]
	// Every truncation point strictly inside record 5 must replay exactly
	// the 4 committed records.
	for _, cut := range []int64{committed4 + 1, committed4 + 2, int64(len(full)) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := ReplayResultLog(path, nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n != 4 {
			t.Fatalf("cut at %d: replayed %d records, want 4", cut, n)
		}
	}
	// Reopening over the torn tail truncates it and appends cleanly.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 4 {
		t.Fatalf("reopen over torn tail: Len = %d, want 4", l2.Len())
	}
	if err := l2.Append(logResult(9)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if n, err := ReplayResultLog(path, nil); err != nil || n != 5 {
		t.Fatalf("after repair+append: n=%d err=%v, want 5 records", n, err)
	}
}

// frameEnds returns the end offset of every complete frame in a frame
// log's bytes, for building truncation points in tests.
func frameEnds(data []byte, magic string) []int64 {
	var ends []int64
	off := len(magic)
	for off < len(data) {
		size, vn := binary.Uvarint(data[off:])
		if vn <= 0 {
			break
		}
		end := off + vn + 4 + int(size)
		if end > len(data) {
			break
		}
		ends = append(ends, int64(end))
		off = end
	}
	return ends
}

// TestResultLogRejectsCorruption: flipping a committed byte is
// corruption, not a tail, and must fail the replay.
func TestResultLogRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	l, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(logResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(resultLogMagic)+20] ^= 0xff // inside record 0's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayResultLog(path, nil); err == nil {
		t.Fatal("corrupted committed record replayed without error")
	}
	if _, err := OpenResultLog(path); err == nil {
		t.Fatal("corrupted log opened without error")
	}
}

func TestResultLogBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.log")
	if err := os.WriteFile(path, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayResultLog(path, nil); err == nil {
		t.Fatal("foreign file replayed without error")
	}
	if _, err := OpenResultLog(path); err == nil {
		t.Fatal("foreign file opened as log without error")
	}
}
