package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"elba/internal/store"
)

// resultLogMagic opens every result log file. The version digit guards
// the frame format: readers reject files from a different format rather
// than misparse them.
const resultLogMagic = "ELBALOG1\n"

var resultLogFrames = frameLog{kind: "result log", magic: resultLogMagic}

// ResultLog is an append-only, crash-safe record of trial results in
// commit order: the campaign's durable observation stream. Each record
// is one store.Result as canonical JSON in a frame of the package's one
// durable format (frameLog), fsynced before Append returns — so the log
// on disk is always a committed prefix of the stream, and a torn tail
// left by a crash is detected and discarded, never misread.
//
// Because results commit in deterministic grid order and serialize
// canonically, two logs of the same campaign are byte-identical whatever
// the worker count — and replaying a log through a report.Folder
// reproduces the live fold exactly.
type ResultLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	n    int // committed records
}

// OpenResultLog opens (creating if absent) the log at path for
// appending. An existing file is scanned: its committed prefix is kept,
// a torn tail from an interrupted write is truncated away, and
// subsequent appends continue after the last committed record.
func OpenResultLog(path string) (*ResultLog, error) {
	f, n, err := resultLogFrames.open(path, decodeResult(nil))
	if err != nil {
		return nil, err
	}
	return &ResultLog{f: f, path: path, n: n}, nil
}

// Append writes one result as the log's next record and fsyncs. The
// record is durable (or absent) when Append returns.
func (l *ResultLog) Append(r store.Result) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("campaign: result log %s is closed", l.path)
	}
	if err := appendFrame(l.f, payload); err != nil {
		return err
	}
	l.n++
	return nil
}

// Len reports the number of committed records.
func (l *ResultLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Path reports the log's file path.
func (l *ResultLog) Path() string { return l.path }

// Close closes the underlying file. Further Appends fail.
func (l *ResultLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReplayResultLog reads the log at path and calls fn for every committed
// record in append order. A torn tail (an interrupted final write) ends
// the replay cleanly, and an empty file replays no records; corruption
// inside the committed region — a failed checksum or invalid JSON — is an
// error, as is an error fn returns. It returns the number of records
// replayed.
func ReplayResultLog(path string, fn func(store.Result) error) (int, error) {
	_, _, n, err := resultLogFrames.read(path, decodeResult(fn))
	return n, err
}

// decodeResult returns a frame decoder that unmarshals each payload as a
// store.Result and hands it to fn, when fn is non-nil.
func decodeResult(fn func(store.Result) error) func([]byte) error {
	return func(payload []byte) error {
		var r store.Result
		if err := json.Unmarshal(payload, &r); err != nil || fn == nil {
			return err
		}
		return fn(r)
	}
}
