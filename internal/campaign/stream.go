package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"elba/internal/report"
	"elba/internal/store"
)

// StreamEvent is one message on a campaign's live event stream: a
// committed trial with the campaign's running quantiles, an online
// detection (knee, SLO onset, first failure), or a terminal status.
type StreamEvent struct {
	// Kind is "trial", "knee", "slo-onset", "failure-onset", or "status".
	Kind string `json:"kind"`
	// Campaign is the emitting campaign's ID.
	Campaign string `json:"campaign"`
	// Seq numbers the campaign's events from 1 in emission order, so a
	// consumer can detect drops (bounded subscribers drop oldest first).
	Seq int `json:"seq"`
	// Key identifies the trial behind a trial/detection event.
	Key *store.Key `json:"key,omitempty"`
	// Completed, Throughput: the trial's own outcome (trial events).
	Completed  bool    `json:"completed,omitempty"`
	Throughput float64 `json:"throughput_rps,omitempty"`
	// P50/P90/P99 are the experiment's *running* campaign-level
	// response-time quantiles (ms) from the merged sketch after this
	// trial folded in.
	P50ms float64 `json:"p50_ms,omitempty"`
	P90ms float64 `json:"p90_ms,omitempty"`
	P99ms float64 `json:"p99_ms,omitempty"`
	// Done/Total track campaign progress (trial events).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Status carries the terminal state (status events).
	Status Status `json:"status,omitempty"`
	// Message is the one-line human rendering of detection events.
	Message string `json:"message,omitempty"`
}

// streamState is a campaign's streaming machinery, allocated only when
// the service runs with streaming enabled.
type streamState struct {
	mu     sync.Mutex
	folder *report.Folder
	rlog   *ResultLog
	logErr error
	seq    int
	subs   map[int]chan StreamEvent
	nextID int
	closed bool
}

// initStream arms the campaign's streaming state. logDir "" disables
// the result log.
func (c *Campaign) initStream(logDir string) error {
	st := &streamState{
		folder: report.NewFolder(),
		subs:   map[int]chan StreamEvent{},
	}
	if logDir != "" {
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			return fmt.Errorf("campaign: result log dir: %w", err)
		}
		rlog, err := OpenResultLog(resultLogPath(logDir, c.id))
		if err != nil {
			return err
		}
		st.rlog = rlog
	}
	c.mu.Lock()
	c.stream = st
	c.mu.Unlock()
	return nil
}

// resultLogPath is the path of campaign id's result log in dir.
func resultLogPath(dir, id string) string {
	return filepath.Join(dir, id+".log")
}

// discardResultLog closes and deletes the result log of a campaign the
// service refused after opening it. Their errors are dropped: the
// refusal is the error Submit reports, and a log left behind holds no
// record.
func (c *Campaign) discardResultLog() {
	if path := c.ResultLogPath(); path != "" {
		_ = c.stream.rlog.Close()
		_ = os.Remove(path)
	}
}

// Streaming reports whether this campaign runs the streaming path.
func (c *Campaign) Streaming() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stream != nil
}

// ResultLogPath reports the campaign's result log file ("" when none).
func (c *Campaign) ResultLogPath() string {
	c.mu.Lock()
	st := c.stream
	c.mu.Unlock()
	if st == nil || st.rlog == nil {
		return ""
	}
	return st.rlog.Path()
}

// LogError reports the first result-log write failure, if any. Logging
// failure never fails the campaign — the log is observability, not the
// result of record — but it is surfaced here rather than swallowed.
func (c *Campaign) LogError() error {
	c.mu.Lock()
	st := c.stream
	c.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.logErr
}

// StreamTables renders the streaming folder's running tables at this
// moment; empty when the campaign is not streaming.
func (c *Campaign) StreamTables() string {
	c.mu.Lock()
	st := c.stream
	c.mu.Unlock()
	if st == nil {
		return ""
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.folder.Tables()
}

// Subscribe registers a live event consumer with a bounded queue of the
// given depth (minimum 16). When the consumer falls behind, the oldest
// queued event is dropped to admit the newest — Seq gaps tell the
// consumer it happened. The channel closes when the campaign reaches a
// terminal status (after a final "status" event) or when cancel is
// called. Subscribing to a terminal campaign yields the status event
// and an immediately-closed channel.
func (c *Campaign) Subscribe(depth int) (<-chan StreamEvent, func()) {
	if depth < 16 {
		depth = 16
	}
	c.mu.Lock()
	st := c.stream
	status := c.status
	c.mu.Unlock()
	ch := make(chan StreamEvent, depth)
	if st == nil {
		close(ch)
		return ch, func() {}
	}
	st.mu.Lock()
	if st.closed {
		st.seq++
		ch <- StreamEvent{Kind: "status", Campaign: c.id, Seq: st.seq, Status: status}
		st.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := st.nextID
	st.nextID++
	st.subs[id] = ch
	st.mu.Unlock()
	cancel := func() {
		st.mu.Lock()
		if sub, ok := st.subs[id]; ok {
			delete(st.subs, id)
			close(sub)
		}
		st.mu.Unlock()
	}
	return ch, cancel
}

// publishLocked fans ev out to every subscriber, dropping each queue's
// oldest event when it is full. st.mu must be held.
func (st *streamState) publishLocked(ev StreamEvent) {
	st.seq++
	ev.Seq = st.seq
	for _, ch := range st.subs {
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch: // drop oldest, then retry
				default:
				}
				continue
			}
			break
		}
	}
}

// streamTrial folds one committed result into the campaign's streaming
// state: append to the result log, ingest into the folder, publish the
// trial event and any detections. Called from the runner's OnTrial
// hook; the stream mutex serializes it, so the log's record order, the
// folder's merge order, and the event order all equal commit order.
func (c *Campaign) streamTrial(r store.Result, done, total int) {
	c.mu.Lock()
	st := c.stream
	c.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.rlog != nil && st.logErr == nil {
		if err := st.rlog.Append(r); err != nil {
			st.logErr = err
		}
	}
	events := st.folder.Ingest(r)
	ev := StreamEvent{
		Kind:       "trial",
		Campaign:   c.id,
		Key:        &r.Key,
		Completed:  r.Completed,
		Throughput: r.Throughput,
		Done:       done,
		Total:      total,
	}
	if qs, _, ok := st.folder.Quantiles(r.Key.Experiment, 0.50, 0.90, 0.99); ok {
		ev.P50ms, ev.P90ms, ev.P99ms = qs[0], qs[1], qs[2]
	}
	st.publishLocked(ev)
	for _, fe := range events {
		key := fe.Key
		st.publishLocked(StreamEvent{
			Kind:     fe.Kind,
			Campaign: c.id,
			Key:      &key,
			Message:  fe.Message,
		})
	}
}

// closeStream publishes the terminal status and closes every
// subscriber. Called exactly once, from finish.
func (c *Campaign) closeStream(status Status) {
	c.mu.Lock()
	st := c.stream
	c.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.publishLocked(StreamEvent{Kind: "status", Campaign: c.id, Status: status})
	for id, ch := range st.subs {
		delete(st.subs, id)
		close(ch)
	}
	st.closed = true
	rlog := st.rlog
	st.mu.Unlock()
	if rlog != nil {
		rlog.Close()
	}
}
