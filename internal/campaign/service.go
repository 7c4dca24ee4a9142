package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"elba/internal/core"
	"elba/internal/spec"
	"elba/internal/store"
)

// Status is a campaign's lifecycle state.
type Status string

const (
	// StatusQueued: accepted and waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the sweeps.
	StatusRunning Status = "running"
	// StatusDone: every experiment completed; results are available.
	StatusDone Status = "done"
	// StatusFailed: a sweep returned an error; Progress carries it.
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled before or during execution. Trials
	// committed before the cancellation point stay in the campaign's
	// store (and in the shared cache), but results are not published.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Config configures a Service.
type Config struct {
	// Workers is the number of campaigns executed concurrently
	// (default 1). Within a campaign, Options.Parallel and
	// Options.TrialParallel govern sweep-level concurrency as usual.
	Workers int
	// QueueDepth bounds accepted-but-not-yet-running campaigns
	// (default 16); Submit fails fast when the queue is full.
	QueueDepth int
	// Cache is the shared trial cache (nil = fresh memory-only cache).
	Cache *Cache
	// Stream arms the streaming observability path for every campaign:
	// trials run with response-time sketches (Options.SketchRT), each
	// campaign folds its committed results into running tables as they
	// land, and Subscribe delivers live trial/knee/SLO events. Off by
	// default — and with it off, campaign output is byte-identical to a
	// service without the streaming path at all.
	Stream bool
	// ResultLogDir, when set (implies Stream), writes each campaign's
	// committed results to an append-only log at <dir>/<id>.log; replaying
	// the log through a report.Folder reproduces the live tables exactly.
	ResultLogDir string
	// Options is the base characterizer configuration applied to every
	// campaign. The service manages Store and TrialCache itself — each
	// campaign gets a private store and the shared cache — and wraps
	// OnTrial to keep per-campaign progress counts.
	Options core.Options
}

// Service owns the campaign queue, the worker pool, and the shared
// trial cache. Campaigns execute in submission order across Workers
// goroutines; because every trial is memoized content-addressed,
// execution order and worker count affect only wall-clock time, never
// the bytes any campaign stores.
type Service struct {
	cache  *Cache
	opts   core.Options
	stream bool
	logDir string
	queue  chan *Campaign
	wg     sync.WaitGroup

	mu     sync.Mutex
	byID   map[string]*Campaign
	order  []string
	seq    int
	closed bool
}

// NewService starts the worker pool and returns the service.
func NewService(cfg Config) *Service {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 16
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewCache()
	}
	s := &Service{
		cache:  cache,
		opts:   cfg.Options,
		stream: cfg.Stream || cfg.ResultLogDir != "",
		logDir: cfg.ResultLogDir,
		queue:  make(chan *Campaign, depth),
		byID:   map[string]*Campaign{},
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the shared trial cache.
func (s *Service) Cache() *Cache { return s.cache }

// Submit parses src as a TBL document and enqueues it as a new
// campaign. Parse and validation errors — with their line:column
// positions — are returned synchronously; nothing is enqueued for an
// invalid document.
func (s *Service) Submit(src string) (*Campaign, error) {
	doc, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(doc.Experiments) == 0 {
		return nil, errors.New("campaign: document declares no experiments")
	}
	names := make([]string, len(doc.Experiments))
	total := 0
	for i, e := range doc.Experiments {
		names[i] = e.Name
		total += e.TrialCount()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("campaign: service is shut down")
	}
	s.seq++
	id := fmt.Sprintf("c%04d", s.seq)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Campaign{
		id:          id,
		doc:         doc,
		names:       names,
		totalTrials: total,
		ctx:         ctx,
		cancel:      cancel,
		status:      StatusQueued,
		finished:    make(chan struct{}),
	}
	// Streaming campaigns get their stream state (and result log file)
	// at submission, so a subscriber attached before the first trial
	// commits sees the whole event stream.
	if s.stream {
		if err := c.initStream(s.logDir); err != nil {
			s.mu.Unlock()
			cancel()
			return nil, err
		}
	}
	select {
	case s.queue <- c:
	default:
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("campaign: queue full (%d pending)", cap(s.queue))
	}
	s.byID[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()
	return c, nil
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	return c, ok
}

// List returns every campaign in submission order.
func (s *Service) List() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, len(s.order))
	for i, id := range s.order {
		out[i] = s.byID[id]
	}
	return out
}

// Cancel cancels a campaign: a queued one finishes instantly as
// cancelled, a running one stops between trials keeping its completed
// prefix, and a terminal one is left untouched (reported as false).
func (s *Service) Cancel(id string) (bool, error) {
	c, ok := s.Get(id)
	if !ok {
		return false, fmt.Errorf("campaign: no campaign %q", id)
	}
	return c.cancelNow(), nil
}

// Close stops accepting submissions, cancels every non-terminal
// campaign, and waits for the workers to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	campaigns := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		campaigns = append(campaigns, s.byID[id])
	}
	s.mu.Unlock()
	for _, c := range campaigns {
		c.cancelNow()
	}
	close(s.queue)
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for c := range s.queue {
		s.execute(c)
	}
}

// execute runs one campaign to a terminal status.
func (s *Service) execute(c *Campaign) {
	if !c.begin() {
		return // cancelled while queued
	}
	opts := s.opts
	opts.Store = store.New()
	opts.TrialCache = s.cache
	if s.stream {
		opts.SketchRT = true
	}
	userOnTrial := opts.OnTrial
	opts.OnTrial = func(r store.Result) {
		done := c.noteTrial()
		c.streamTrial(r, done, c.totalTrials)
		if userOnTrial != nil {
			userOnTrial(r)
		}
	}
	char, err := core.New(opts)
	if err != nil {
		c.finish(StatusFailed, err)
		return
	}
	c.attach(char)
	var runErr error
	for _, e := range c.doc.Experiments {
		if runErr = char.RunExperimentContext(c.ctx, e); runErr != nil {
			break
		}
	}
	switch {
	case c.ctx.Err() != nil:
		c.finish(StatusCancelled, context.Cause(c.ctx))
	case runErr != nil:
		c.finish(StatusFailed, runErr)
	default:
		c.finish(StatusDone, nil)
	}
}

// Progress is a JSON-ready snapshot of one campaign.
type Progress struct {
	ID          string   `json:"id"`
	Status      Status   `json:"status"`
	Experiments []string `json:"experiments"`
	TotalTrials int      `json:"total_trials"`
	DoneTrials  int      `json:"done_trials"`
	// CacheHits and CacheMisses are this campaign's own counts against
	// the shared cache; the service-wide totals live in CacheStats.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Error       string `json:"error,omitempty"`
}

// Campaign is one submitted TBL document moving through the queue.
type Campaign struct {
	id          string
	doc         *spec.Document
	names       []string
	totalTrials int
	ctx         context.Context
	cancel      context.CancelFunc
	finished    chan struct{}

	mu     sync.Mutex
	status Status
	err    error
	done   int
	char   *core.Characterizer // live while running; nil once finished
	stream *streamState

	// results and the cache counts are what a finished campaign keeps of
	// its characterizer, so a Service holding many finished campaigns
	// does not pin their runners, generators and deployments.
	results                *store.Store
	cacheHits, cacheMisses uint64
}

// ID returns the service-assigned campaign identifier.
func (c *Campaign) ID() string { return c.id }

// Wait blocks until the campaign is terminal and returns its status.
func (c *Campaign) Wait() Status {
	<-c.finished
	return c.Status()
}

// Status returns the current lifecycle state.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Progress snapshots the campaign.
func (c *Campaign) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		ID:          c.id,
		Status:      c.status,
		Experiments: append([]string(nil), c.names...),
		TotalTrials: c.totalTrials,
		DoneTrials:  c.done,
	}
	p.CacheHits, p.CacheMisses = c.cacheCounts()
	if c.err != nil && c.status != StatusDone {
		p.Error = c.err.Error()
	}
	return p
}

// Results returns the campaign's result store once it is done; until
// then (or on failure/cancellation) it reports an error naming the
// current status, so callers can distinguish "not yet" from "never".
func (c *Campaign) Results() (*store.Store, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusDone {
		return nil, fmt.Errorf("campaign %s is %s, results unavailable", c.id, c.status)
	}
	return c.results, nil
}

// cacheCounts reports the campaign's cache hits and misses: live from the
// runner while it runs, frozen once it finishes. The caller holds c.mu.
func (c *Campaign) cacheCounts() (hits, misses uint64) {
	if c.char == nil {
		return c.cacheHits, c.cacheMisses
	}
	r := c.char.Runner()
	return r.CacheHits(), r.CacheMisses()
}

// begin moves queued → running; false if the campaign was cancelled
// while waiting (its terminal state is already published).
func (c *Campaign) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusQueued {
		return false
	}
	c.status = StatusRunning
	return true
}

// attach publishes the campaign's characterizer for progress snapshots.
func (c *Campaign) attach(char *core.Characterizer) {
	c.mu.Lock()
	c.char = char
	c.mu.Unlock()
}

// noteTrial counts one committed trial and returns the running count.
func (c *Campaign) noteTrial() int {
	c.mu.Lock()
	c.done++
	done := c.done
	c.mu.Unlock()
	return done
}

// finish publishes a terminal status exactly once, keeping the results
// and final cache counts and releasing the characterizer.
func (c *Campaign) finish(st Status, err error) {
	c.mu.Lock()
	if c.status.Terminal() {
		c.mu.Unlock()
		return
	}
	c.status = st
	c.err = err
	if c.char != nil {
		c.results = c.char.Results()
		c.cacheHits, c.cacheMisses = c.cacheCounts()
		c.char = nil
	}
	c.mu.Unlock()
	c.closeStream(st)
	c.cancel()
	close(c.finished)
}

// cancelNow cancels the campaign, immediately finalizing it when it is
// still queued; true if the cancellation took effect (the campaign was
// not already terminal — a running campaign finalizes when its worker
// observes the cancelled context between trials).
func (c *Campaign) cancelNow() bool {
	c.mu.Lock()
	switch {
	case c.status == StatusQueued:
		c.status = StatusCancelled
		c.err = context.Canceled
		c.mu.Unlock()
		c.closeStream(StatusCancelled)
		c.cancel()
		close(c.finished)
		return true
	case c.status == StatusRunning:
		c.mu.Unlock()
		c.cancel()
		return true
	default:
		c.mu.Unlock()
		return false
	}
}
