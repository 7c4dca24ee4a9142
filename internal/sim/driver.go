package sim

import (
	"math/rand/v2"

	"elba/internal/metrics"
	"elba/internal/trace"
)

// DriverConfig parameterizes the closed-loop client driver. Mulini
// generates these values from the TBL workload section.
type DriverConfig struct {
	// Users is the number of concurrent emulated users.
	Users int
	// Timeout is the client-side response timeout in seconds; responses
	// slower than this are counted as errors (0 disables).
	Timeout float64
	// RampUp spreads session starts uniformly over this many seconds so
	// all users do not fire their first request at the same instant.
	RampUp float64
	// MaxSessions caps the number of users the deployment can hold
	// persistent connections for (application-server MaxClients × app
	// servers, with mod_jk sticky sessions). Users beyond the cap get
	// connection-refused on every request, which is how overloaded small
	// configurations fail to complete experiments (paper Table 7's
	// missing squares). 0 disables the cap.
	MaxSessions int
}

// Driver emulates a population of users in a closed loop: think, issue the
// session's next interaction, wait for the response, repeat. It counts
// outcomes and records successful response times for the measurement
// window.
type Driver struct {
	k     *Kernel
	app   *NTier
	model Model
	ixs   []Interaction // model.Interactions(), which sessions index
	cfg   DriverConfig
	rng   *rand.Rand

	measuring bool
	issued    int64
	errors    int64

	// errRate, when positive, fails each issued request with this
	// probability before it reaches the application — a fault-injection
	// error burst on the client network path. injected counts the
	// requests so failed during the measurement window.
	errRate  float64
	injected int64

	// tracer, when set, head-samples measured requests into span traces.
	// The keep/drop decision is a pure function of (tracer seed, issue
	// index), so the traced subset is identical for any worker count.
	tracer *trace.Collector

	// users lists the sessions holding a connection slot, in the order
	// they joined; refused sessions are not in it. The list, the users
	// themselves, rtSample and perIx live in the kernel's trial arena.
	users  []*user
	active int

	rtSample *metrics.Sample
	perIx    []metrics.Summary // indexed like ixs

	// rtObs, when set, additionally observes every measured successful
	// response time in completion order — the streaming path's tap for
	// per-trial quantile sketches and differential tests. Nil costs
	// nothing and never touches the random streams.
	rtObs metrics.Observer
}

// Event tags for the per-user state machine.
const (
	tagUserStart int32 = iota // session's start delay elapsed: enter the loop
	tagUserThink              // think period ended: issue the next request
)

// user is one emulated client session. It implements the kernel's actor
// interface (for think/start timers) and the router's outcomeDone interface
// (for request completions), so a full think→request→response cycle
// schedules no closures and allocates nothing in steady state.
type user struct {
	d    *Driver
	sess Session
	id   int

	// in-flight request state; valid between issue and requestDone. ix
	// indexes Driver.ixs.
	ix       int
	issuedAt float64
	tr       *trace.Trace

	stop    bool
	refused bool
}

// act handles the user's timer events.
func (u *user) act(tag int32) {
	d := u.d
	if tag == tagUserStart {
		u.loop()
		return
	}
	// Think period over: issue the session's next interaction.
	if u.refused {
		ix := u.sess.Next(d.rng)
		d.issued++
		d.complete(ix, 0, Rejected)
		u.loop()
		return
	}
	if u.stop {
		return
	}
	ix := u.sess.Next(d.rng)
	// Error-burst window: the request fails on the wire. The rng is only
	// consulted while a burst is active, so fault-free runs keep their
	// historical random stream bit-for-bit.
	if d.errRate > 0 && d.rng.Float64() < d.errRate {
		d.issued++
		if d.measuring {
			d.injected++
		}
		d.complete(ix, 0, Failed)
		u.loop()
		return
	}
	it := &d.ixs[ix]
	u.ix = ix
	u.issuedAt = d.k.Now()
	d.issued++
	if d.tracer != nil && d.measuring && d.tracer.Sample(uint64(d.issued)) {
		u.tr = d.tracer.Start(it.Name, u.id, u.issuedAt, it.Write)
	}
	d.app.serveSession(u.id, it, u, u.tr)
}

// requestDone receives the end-to-end outcome of the user's in-flight
// request and closes the loop: the user starts thinking again immediately,
// whatever the outcome (a real emulator retries after errors).
func (u *user) requestDone(out Outcome) {
	d := u.d
	rt := d.k.Now() - u.issuedAt
	if u.tr != nil {
		d.tracer.Commit(u.tr, rt, out.String())
		u.tr = nil
	}
	d.complete(u.ix, rt, out)
	u.loop()
}

// loop begins one think period unless the session has been retired.
// Refused sessions never retire: they model browsers hammering a full
// accept queue, exactly as the original refused loop did.
func (u *user) loop() {
	if !u.refused && u.stop {
		return
	}
	think := u.d.k.Exp(u.d.model.ThinkTime())
	u.d.k.scheduleAct(think, u, tagUserThink)
}

// NewDriver creates a driver for users of the given workload model against
// app. The driver draws all randomness from its own PCG stream seeded from
// seed so concurrent trials never share state. Its users, success sample
// and per-interaction summaries come from k's trial arena, so the driver
// must not be used after k's Release.
func NewDriver(k *Kernel, app *NTier, model Model, cfg DriverConfig, seed uint64) *Driver {
	d := &Driver{
		k:     k,
		app:   app,
		model: model,
		ixs:   model.Interactions(),
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(seed, seed^0xdeadbeefcafef00d)),
	}
	k.arena.adoptDriver(d)
	return d
}

// newUser places a new session in the kernel's arena, where it stays at
// one address until the kernel is released.
func (d *Driver) newUser(id int, refused bool) *user {
	u := d.k.arena.users.next()
	u.d, u.sess, u.id, u.refused = d, d.model.NewSession(d.rng), id, refused
	return u
}

// Start launches all user sessions. Call before Kernel.Run.
func (d *Driver) Start() {
	for i := 0; i < d.cfg.Users; i++ {
		delay := 0.0
		if d.cfg.RampUp > 0 {
			delay = d.rng.Float64() * d.cfg.RampUp
		}
		if d.cfg.MaxSessions > 0 && i >= d.cfg.MaxSessions {
			// No connection slot: this user's requests are refused.
			d.k.scheduleAct(delay, d.newUser(-1, true), tagUserStart)
			continue
		}
		u := d.newUser(len(d.users), false)
		d.users = append(d.users, u)
		d.active++
		d.k.scheduleAct(delay, u, tagUserStart)
	}
}

// AddUsers grows the population mid-run by n sessions, modelling workload
// evolution (a traffic surge arriving at a running deployment). New users
// ramp in over rampUp seconds. Session caps do not apply to late joiners;
// callers modelling capped servers should size the initial population
// instead.
func (d *Driver) AddUsers(n int, rampUp float64) {
	for i := 0; i < n; i++ {
		u := d.newUser(len(d.users), false)
		d.users = append(d.users, u)
		d.active++
		delay := 0.0
		if rampUp > 0 {
			delay = d.rng.Float64() * rampUp
		}
		d.k.scheduleAct(delay, u, tagUserStart)
	}
}

// RemoveUsers retires n of the most recently added live sessions: each
// finishes its in-flight request (if any) and leaves instead of thinking
// again.
func (d *Driver) RemoveUsers(n int) {
	for i := len(d.users) - 1; i >= 0 && n > 0; i-- {
		if u := d.users[i]; !u.stop {
			u.stop = true
			d.active--
			n--
		}
	}
}

// complete records the outcome of a request for interaction ix.
func (d *Driver) complete(ix int, rt float64, out Outcome) {
	timedOut := d.cfg.Timeout > 0 && rt > d.cfg.Timeout
	if d.measuring && out == OK && !timedOut {
		d.rtSample.Observe(rt)
		if d.rtObs != nil {
			d.rtObs.Observe(rt)
		}
		d.perIx[ix].Observe(rt)
	}
	if out != OK || timedOut {
		d.errors++
	}
}

// BeginMeasurement starts recording requests; the trial runner calls this
// at the end of the warm-up period. It clears the previous window's
// counters, success sample and per-interaction summaries.
func (d *Driver) BeginMeasurement() {
	d.measuring = true
	d.rtSample.Reset()
	clear(d.perIx)
	d.errors = 0
	d.injected = 0
}

// EndMeasurement stops recording.
func (d *Driver) EndMeasurement() { d.measuring = false }

// SetTracer attaches a per-trial trace collector. While measuring, each
// issued request is head-sampled by the collector; sampled requests carry
// a span trace through the tiers and commit at completion. Call with nil
// to disable. Tracing never touches the driver's random streams, so a
// traced run issues the identical request sequence as an untraced one.
func (d *Driver) SetTracer(c *trace.Collector) { d.tracer = c }

// SetRTObserver attaches an additional observer for measured successful
// response times (seconds, completion order). The observer sees exactly
// the stream rtSample records, so a sketch fed through it summarizes the
// same multiset the exact quantiles are computed from. Call with nil to
// detach. Observation never consults the driver's random streams, so an
// observed run issues the identical request sequence as an unobserved one.
func (d *Driver) SetRTObserver(o metrics.Observer) { d.rtObs = o }

// ResponseTimes returns the sample of successful, in-deadline response
// times measured in the current window. Values are appended in completion
// order, and nothing in this package reorders the sample, so until the
// caller first takes a quantile (which reorders it in place)
// Sample.Since(i) yields exactly the successes completed after the i-th.
// The expression hooks rely on this to cut per-window response times out
// of a running trial; quantiles are read only once the trial has ended.
func (d *Driver) ResponseTimes() *metrics.Sample { return d.rtSample }

// PerInteraction returns response-time summaries keyed by interaction
// name, for interactions observed during the measurement window. Names
// are unique within a model (see Model), so each key has one summary.
func (d *Driver) PerInteraction() map[string]*metrics.Summary {
	out := make(map[string]*metrics.Summary, len(d.perIx))
	for i := range d.perIx {
		if s := &d.perIx[i]; s.Count() > 0 {
			out[d.ixs[i].Name] = s
		}
	}
	return out
}

// SetErrorRate starts (p > 0) or ends (p <= 0) an error-burst window:
// while active, each issued request fails with probability p before
// reaching the application. Fault injection schedules these windows on
// the kernel.
func (d *Driver) SetErrorRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	d.errRate = p
}

// InjectedErrors reports requests failed by error bursts during the
// measurement window.
func (d *Driver) InjectedErrors() int64 { return d.injected }

// Errors reports rejected, failed, or timed-out requests during the
// measurement window.
func (d *Driver) Errors() int64 { return d.errors }
