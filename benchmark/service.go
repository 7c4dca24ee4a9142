package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"elba/internal/campaign"
	"elba/internal/core"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

// serviceMode distinguishes the three workloads that run through the
// campaign service.
type serviceMode int

const (
	// modeFresh (des-sweep): an in-memory cache every point misses.
	modeFresh serviceMode = iota
	// modeStream (observe-stream): an on-disk cache written on every
	// miss, a result log per campaign, and a live event stream.
	modeStream
	// modeReplay (warm-replay): an on-disk cache filled during set-up
	// and reopened, which serves every point.
	modeReplay
)

// campaignsPerService bounds the campaigns one Service instance runs
// before the harness swaps in a fresh one over the same cache. A Service
// keeps every finished campaign (store and characterizer) for later
// GETs; without the swap, warm-replay's thousands of campaigns would
// grow the heap by about 50 KB each and the run would measure that
// retention rather than the request path.
const campaignsPerService = 256

// serviceEnv runs jobs as elbad's clients do: Submit, drain the event
// stream when streaming, wait, then fetch the results JSON and the
// report (and the stream tables).
type serviceEnv struct {
	mode   serviceMode
	doc    func(idx int) (name, src string)
	points int // workload points per document
	keep   int // jobs below this index keep their outputs for the digest
	cfg    campaign.Config
	dir    string
	// expect holds warm-replay's cold results and reports by document.
	expect map[string]coldResult

	mu   sync.Mutex
	gen  *generation
	gens int
	live map[string]*jobResult // running jobs by experiment name
}

type coldResult struct {
	results []byte
	report  string
}

// generation is one Service instance and the campaigns it has running.
type generation struct {
	svc      *campaign.Service
	started  int
	inflight int
	retired  bool
}

func newServiceEnv(mode serviceMode, doc func(int) (string, string), points, keep int,
	cfg campaign.Config, dir string) *serviceEnv {
	e := &serviceEnv{mode: mode, doc: doc, points: points, keep: keep, cfg: cfg, dir: dir,
		live: map[string]*jobResult{}}
	e.cfg.Workers = clients
	e.cfg.Options.Parallel = 1
	e.cfg.Options.TrialParallel = 1
	e.cfg.Options.OnTrial = e.onTrial
	return e
}

func desPoints(sc scale) int {
	return (sc.desUsers[1]-sc.desUsers[0])/sc.desUsers[2] + 1
}

func openDesSweep(cfg *runConfig, dir string) (env, error) {
	sc, seed := cfg.scale, cfg.seed
	gen := func(seed uint64, pos, idx int) (string, string) { return desDoc(sc, seed, "des-sweep", pos, idx) }
	return newServiceEnv(modeFresh, seeded(seed, gen), desPoints(sc), sc.digestJobs,
		campaign.Config{Cache: campaign.NewCache(), Options: core.Options{TimeScale: sc.desTimeScale}}, dir), nil
}

func openObserveStream(cfg *runConfig, dir string) (env, error) {
	sc, seed := cfg.scale, cfg.seed
	cache, err := campaign.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	return newServiceEnv(modeStream, seeded(seed, observeDoc), 1, sc.digestJobs,
		campaign.Config{Cache: cache, Stream: true, Options: core.Options{TimeScale: sc.observeTimeScale}}, dir), nil
}

// openWarmReplay fills an on-disk cache by running replayDocs des-sweep
// documents cold, records their results and reports, and reopens the
// cache the way a restarted elbad would.
func openWarmReplay(cfg *runConfig, dir string) (env, error) {
	sc, seed := cfg.scale, cfg.seed
	cacheDir := filepath.Join(dir, "cache")
	cold, err := campaign.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	// The cold fill is whole stratified blocks of documents, all seeded:
	// its cost, not the warm-up's, dominates this set-up.
	docs := func(i int) (string, string) { return desDoc(sc, seed, "warm-replay", i, i) }
	opts := core.Options{TimeScale: sc.replayTimeScale}
	fill := newServiceEnv(modeFresh, docs, desPoints(sc), sc.replayDocs, campaign.Config{Cache: cold, Options: opts}, dir)
	jobs := drive(fill, 0, sc.replayDocs, time.Time{}, nil)
	fill.close()
	expect := map[string]coldResult{}
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("cold fill: %w", j.err)
		}
		name, _ := docs(j.idx)
		expect[name] = coldResult{results: j.digest, report: j.report}
	}
	e := newServiceEnv(modeReplay, func(i int) (string, string) { return docs(i % sc.replayDocs) },
		desPoints(sc), sc.digestJobs, campaign.Config{Options: opts}, dir)
	e.expect = expect
	return e, e.reopenCache(cacheDir)
}

// reopenCache loads the warm-replay cache from disk and checks that it
// holds every cold point.
func (e *serviceEnv) reopenCache(cacheDir string) error {
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	if want := len(e.expect) * e.points; cache.Stats().Loaded != want {
		return fmt.Errorf("reopened cache holds %d entries, want %d", cache.Stats().Loaded, want)
	}
	e.cfg.Cache = cache
	return nil
}

func (e *serviceEnv) twin(dir string) (env, error) {
	t := newServiceEnv(e.mode, e.doc, e.points, e.keep, e.cfg, dir)
	switch e.mode {
	case modeFresh:
		t.cfg.Cache = campaign.NewCache()
	case modeStream:
		cache, err := campaign.OpenCache(filepath.Join(dir, "cache"))
		if err != nil {
			return nil, err
		}
		t.cfg.Cache = cache
	case modeReplay:
		t.expect = e.expect
		if err := t.reopenCache(e.cfg.Cache.Dir()); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// onTrial timestamps each committed point for the job that owns it. The
// service calls it from its worker goroutine; the client reads the job
// only after the campaign is done, which orders the two.
func (e *serviceEnv) onTrial(r store.Result) {
	t := now()
	e.mu.Lock()
	j := e.live[r.Key.Experiment]
	e.mu.Unlock()
	if j != nil {
		j.commits = append(j.commits, t)
		j.simReqs += r.Requests + r.Errors
	}
}

// acquire returns the Service instance for the next campaign, swapping
// in a fresh one over the same cache every campaignsPerService
// campaigns. Each instance gets its own result-log directory, since
// campaign IDs restart with every instance.
func (e *serviceEnv) acquire() *generation {
	e.mu.Lock()
	var stale *generation
	if e.gen == nil || e.gen.started == campaignsPerService {
		if old := e.gen; old != nil {
			old.retired = true
			if old.inflight == 0 {
				stale = old
			}
		}
		cfg := e.cfg
		if e.mode == modeStream {
			cfg.ResultLogDir = filepath.Join(e.dir, "logs", fmt.Sprintf("g%d", e.gens))
		}
		e.gens++
		e.gen = &generation{svc: campaign.NewService(cfg)}
	}
	g := e.gen
	g.started++
	g.inflight++
	e.mu.Unlock()
	if stale != nil {
		stale.svc.Close()
	}
	return g
}

func (e *serviceEnv) release(g *generation) {
	e.mu.Lock()
	g.inflight--
	done := g.retired && g.inflight == 0
	e.mu.Unlock()
	if done {
		g.svc.Close()
	}
}

func (e *serviceEnv) close() {
	e.mu.Lock()
	g := e.gen
	e.gen = nil
	e.mu.Unlock()
	if g != nil {
		g.svc.Close()
	}
}

func (e *serviceEnv) do(idx int, tr *tracer) jobResult {
	if tr != nil {
		return e.doTraced(idx, tr)
	}
	name, src := e.doc(idx)
	j := &jobResult{idx: idx}
	e.mu.Lock()
	e.live[name] = j
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.live, name)
		e.mu.Unlock()
	}()

	g := e.acquire()
	defer e.release(g)
	j.submit = now()
	camp, err := g.svc.Submit(src)
	if err != nil {
		j.err = fmt.Errorf("job %d (%s): submit: %w", idx, name, err)
		return *j
	}
	if e.mode == modeStream {
		events, cancel := camp.Subscribe(16)
		for range events {
		}
		cancel()
	}
	var data []byte
	var rep, tables string
	if status := camp.Wait(); status != campaign.StatusDone {
		err = fmt.Errorf("campaign %s: %s", status, camp.Progress().Error)
	}
	var st *store.Store
	if err == nil {
		st, err = camp.Results()
	}
	if err == nil {
		data, err = st.MarshalJSON()
	}
	if err == nil {
		rep, err = camp.Report()
	}
	if e.mode == modeStream {
		tables = camp.StreamTables()
	}
	j.done = now()
	if err != nil {
		j.err = fmt.Errorf("job %d (%s): %w", idx, name, err)
		return *j
	}
	p := camp.Progress()
	if err := camp.LogError(); err != nil {
		j.err = fmt.Errorf("job %d (%s): result log: %w", idx, name, err)
		return *j
	}
	j.err = e.finish(j, name, st.Len(), data, rep, tables, p.CacheHits, p.CacheMisses, camp.ResultLogPath())
	return *j
}

// finish checks a finished job's outputs against what its workload
// guarantees and keeps what the digest needs. It is shared by the
// service path and the traced path.
func (e *serviceEnv) finish(j *jobResult, name string, n int, data []byte, rep, tables string,
	hits, misses uint64, logPath string) error {
	if n != e.points || len(j.commits) != e.points {
		return fmt.Errorf("job %d (%s): %d results, %d commits, want %d", j.idx, name, n, len(j.commits), e.points)
	}
	switch e.mode {
	case modeReplay:
		want := e.expect[name]
		if hits != uint64(e.points) || misses != 0 {
			return fmt.Errorf("job %d (%s): %d cache hits, %d misses, want all %d hits", j.idx, name, hits, misses, e.points)
		}
		if !bytes.Equal(data, want.results) || rep != want.report {
			return fmt.Errorf("job %d (%s): replayed output differs from the cold run", j.idx, name)
		}
	default:
		if misses != uint64(e.points) || hits != 0 {
			return fmt.Errorf("job %d (%s): %d cache hits, %d misses, want all %d fresh", j.idx, name, hits, misses, e.points)
		}
	}
	if e.mode == modeStream {
		if logPath == "" {
			return fmt.Errorf("job %d (%s): no result log", j.idx, name)
		}
		points := e.points
		j.verify = func() error { return verifyLog(logPath, tables, points) }
	}
	if j.idx < e.keep {
		j.digest, j.report, j.tables = data, rep, tables
	}
	return nil
}

// verifyLog replays a campaign's result log through a fresh folder and
// checks it reproduces the tables the live stream showed.
func verifyLog(path, tables string, points int) error {
	f := report.NewFolder()
	n, err := campaign.ReplayResultLog(path, func(r store.Result) error {
		f.Ingest(r)
		return nil
	})
	if err != nil {
		return err
	}
	if n != points {
		return fmt.Errorf("result log %s holds %d records, want %d", path, n, points)
	}
	if f.Tables() != tables {
		return fmt.Errorf("result log %s replays to tables that differ from the live stream", path)
	}
	return nil
}

// doTraced runs one job the way Service.execute does, but from here, so
// a span can surround every call into a layer: parse, characterizer
// construction with the shared cache behind a timing wrapper, the sweep,
// and in each commit the result-log append and the fold; then the
// results JSON, the report and the stream tables.
func (e *serviceEnv) doTraced(idx int, tr *tracer) jobResult {
	name, src := e.doc(idx)
	j := &jobResult{idx: idx}
	j.submit = now()
	tr.job = int32(idx)
	job := tr.begin("job")

	sp := tr.begin("spec.parse")
	doc, err := spec.Parse(src)
	tr.end(sp)
	if err != nil {
		tr.end(job)
		j.err = fmt.Errorf("job %d (%s): %w", idx, name, err)
		return *j
	}
	var folder *report.Folder
	var rlog *campaign.ResultLog
	var logErr error
	logPath := ""
	opts := e.cfg.Options
	opts.Store = store.New()
	opts.TrialCache = &tracedCache{inner: e.cfg.Cache, tr: tr}
	if e.mode == modeStream {
		opts.SketchRT = true
		folder = report.NewFolder()
		logPath = filepath.Join(e.dir, "logs", fmt.Sprintf("traced-%d.log", idx))
		if err = os.MkdirAll(filepath.Dir(logPath), 0o755); err == nil {
			rlog, err = campaign.OpenResultLog(logPath)
		}
		if err != nil {
			tr.end(job)
			j.err = fmt.Errorf("job %d (%s): %w", idx, name, err)
			return *j
		}
	}
	windowSec := doc.Experiments[0].Monitor.IntervalSec * opts.TimeScale
	opts.OnTrial = func(r store.Result) {
		if rlog != nil {
			sp := tr.begin("campaign.log_append")
			if err := rlog.Append(r); err != nil && logErr == nil {
				logErr = err
			}
			tr.end(sp)
			sp = tr.begin("report.fold")
			folder.Ingest(r)
			tr.end(sp)
		}
		j.commits = append(j.commits, now())
		j.simReqs += r.Requests + r.Errors
		tr.countWindows(r, windowSec)
	}
	sp = tr.begin("core.new")
	char, err := core.New(opts)
	tr.end(sp)
	if err == nil {
		for _, ex := range doc.Experiments {
			sp = tr.begin("experiment.run")
			err = char.RunExperimentContext(context.Background(), ex)
			tr.end(sp)
			if err != nil {
				break
			}
		}
	}
	var data []byte
	var rep, tables string
	if err == nil {
		sp = tr.begin("store.results_json")
		data, err = char.Results().MarshalJSON()
		tr.end(sp)
	}
	if err == nil {
		sp = tr.begin("report.render")
		rep = renderReport(char.Results(), doc)
		tr.end(sp)
	}
	if folder != nil {
		sp = tr.begin("report.stream_tables")
		tables = folder.Tables()
		tr.end(sp)
		err = errors.Join(err, logErr, rlog.Close())
	}
	tr.end(job)
	j.done = now()
	if err != nil {
		j.err = fmt.Errorf("job %d (%s): %w", idx, name, err)
		return *j
	}
	if logPath != "" {
		if fi, err := os.Stat(logPath); err == nil {
			tr.count("campaign.log_bytes", fi.Size())
		}
	}
	if err := probeLayers(char, doc, tr); err != nil {
		j.err = fmt.Errorf("job %d (%s): %w", idx, name, err)
		return *j
	}
	r := char.Runner()
	j.err = e.finish(j, name, char.Results().Len(), data, rep, tables, r.CacheHits(), r.CacheMisses(), logPath)
	return *j
}
