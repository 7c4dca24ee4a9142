// Package fluid approximates the closed n-tier queueing network with
// aggregated user-class dynamics: instead of one Markov emulator per user
// session (the exact DES in internal/sim), the population is a fluid that
// flows think → web → app → db → think. Per-tier queue levels follow the
// relaxation ODE dq/dt = a − q/R(λ), where R(λ) is the tier's analytic
// residence time — Erlang-C M/M/c waits for the CPU legs, M/D/1 waits for
// the deterministic disk and network legs of the multi-resource contention
// model — and outflow is clamped to the tier's service capacity, so a
// backlogged tier drains work-conservingly and the closed loop converges
// to X = N/(Z + R(X)) below saturation and to the capacity ceiling above
// it.
//
// The solver is a fixed-step deterministic integrator: it draws no random
// numbers and iterates no maps, so its output is a pure function of the
// configuration and the sequence of Advance targets. Cost per step is
// independent of the population, which is what makes million-user trials
// take milliseconds instead of hours.
//
// Validity envelope: the flow approximation reproduces the DES closely
// below the saturation knee (think-time-dominated operation) and at deep
// overload (capacity-pegged throughput, Little-law response times). Near
// the knee it solves the open-network fixed point, which under-predicts
// the closed network's throughput by a few percent — the cross-validation
// suite in internal/core pins both the agreement bands and this expected
// divergence.
package fluid

import (
	"fmt"
	"math"
)

// NodeSpec describes one allocated node of a tier.
type NodeSpec struct {
	// Cores is the node's CPU count (the station's server count).
	Cores int
	// Speed is the CPU speed factor relative to the reference frequency.
	Speed float64
	// DiskRate is the disk speed factor relative to the reference spindle
	// (0 = no disk attached).
	DiskRate float64
	// NetRate is the network link rate in bytes per second (0 = no link
	// attached).
	NetRate float64
}

// TierSpec describes one tier: its allocated nodes plus the TBL-declared
// per-request resource demands (the same knobs sim.TierDemand carries).
type TierSpec struct {
	Name  string
	Nodes []NodeSpec
	// CPUScale multiplies the benchmark's CPU demand (0 = unchanged).
	CPUScale float64
	// DiskSec is seconds of disk service per request at the reference
	// spindle (0 = no disk leg).
	DiskSec float64
	// NetBytes is the payload carried into the tier per request (0 = no
	// network leg).
	NetBytes float64
}

// Class is one user-class of the workload: an interaction type with its
// stationary weight and per-tier CPU demands at the reference frequency.
type Class struct {
	Name   string
	Weight float64
	// Web, App, DB are the interaction's per-tier CPU demands in seconds
	// at the reference frequency.
	Web, App, DB float64
	// Write marks database writes, which RAIDb-1 broadcasts to every
	// replica (completion at the slowest).
	Write bool
}

// Config parameterizes a fluid trial. It mirrors what the DES driver and
// buildNTier consume: admitted population, refused sessions beyond the
// connection-pool capacity, think time, ramp-up, and the three tiers.
type Config struct {
	// Sessions is the admitted concurrent-user population.
	Sessions int
	// Refused is the number of sessions beyond the connection-pool
	// capacity; each loops think → instant rejection, exactly like the
	// DES's refused users.
	Refused int
	// ThinkSec is the mean exponential think time.
	ThinkSec float64
	// TimeoutSec is the client response timeout (0 disables).
	TimeoutSec float64
	// RampUpSec spreads session entry uniformly over this window.
	RampUpSec float64
	// Web, App, DB describe the tiers in request-path order.
	Web, App, DB TierSpec
	// Classes is the workload's interaction mix (weights sum to 1).
	Classes []Class
}

// tierIndex labels the request path.
const (
	TierWeb = iota
	TierApp
	TierDB
	numTiers
)

// tierState is one tier's derived constants and fluid state. All nodes of
// a tier are interchangeable under round-robin balancing, so per-node
// quantities are tier totals divided by the node count.
type tierState struct {
	nodes int
	cores int     // servers per node, for the M/M/c wait
	cap   float64 // service capacity in completions/s (min over legs)

	// Per-visit service times after hardware scaling.
	cpuSvcMean float64 // mean CPU service per node visit
	diskSvc    float64 // deterministic disk service per visit (0 = none)
	netSvc     float64 // deterministic net service per visit (0 = none)

	// Per-completed-request factors.
	visitsPerNode float64 // node visits per tier completion, per node
	cpuWorkPerReq float64 // CPU busy-seconds per node per completion
	svcLatency    float64 // mean no-wait latency through the tier
	waitScale     float64 // arrival-thinning wait correction, (1+1/n)/2

	// Fluid state and cumulative accounting.
	q    float64 // jobs in the tier (queued + in service)
	qInt float64 // ∫ q dt
	done float64 // completions out of the tier

	// Epoch baselines folded in by SetTierNodes. The per-node busy
	// counters are derived from done via per-request factors; when a
	// node-count change re-derives those factors, the totals accrued so
	// far are frozen here so the counters stay continuous and monotone.
	// All-zero baselines reproduce the historical derivation exactly.
	cpuBusy0, diskBusy0, netBusy0, ops0 float64
	done0                               float64
}

// classDist is one class's service-only response-time distribution: a
// sum of independent exponential stages (web CPU, app CPU, db CPU — a
// max-of-replicas hypoexponential for writes), to which each window adds
// the deterministic legs and its measured queueing delay.
type classDist struct {
	name    string
	weight  float64
	rates   []float64 // distinct exponential stage rates
	expMean float64   // Σ 1/rate
}

// Solver integrates the fluid model. Create with New, drive with Advance,
// and read windows with Snapshot/StatsBetween.
type Solver struct {
	cfg     Config
	think   float64
	dt      float64
	now     float64
	ww      float64 // write fraction of the mix
	wsum    float64 // class weight normalizer, kept for re-derivation
	tiers   [numTiers]tierState
	classes []classDist
	detSvc  float64 // deterministic leg latency shared by every class
	mix     mixture // the last window's response-time mixture, rebuilt in place

	entered       float64 // admitted sessions ramped in so far
	refusedActive float64 // refused sessions ramped in so far
	qThink        float64
	rejected      float64 // cumulative rejections
	leaveDebt     float64 // sessions leaving once their in-flight request completes
}

// New builds a solver. It validates the configuration and precomputes
// every per-tier and per-class constant, so stepping is allocation-free.
func New(cfg Config) (*Solver, error) {
	if cfg.Sessions < 0 || cfg.Refused < 0 {
		return nil, fmt.Errorf("fluid: negative population")
	}
	if cfg.ThinkSec <= 0 {
		return nil, fmt.Errorf("fluid: think time must be positive")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("fluid: workload needs at least one class")
	}
	for _, t := range [...]TierSpec{cfg.Web, cfg.App, cfg.DB} {
		if len(t.Nodes) == 0 {
			return nil, fmt.Errorf("fluid: tier %q has no nodes", t.Name)
		}
		for _, n := range t.Nodes {
			if n.Cores < 1 || n.Speed <= 0 {
				return nil, fmt.Errorf("fluid: tier %q node needs cores and speed", t.Name)
			}
		}
	}
	s := &Solver{cfg: cfg, think: cfg.ThinkSec, dt: cfg.ThinkSec / 20}

	var wsum float64
	for _, c := range cfg.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("fluid: class %q has negative weight", c.Name)
		}
		wsum += c.Weight
		if c.Write {
			s.ww += c.Weight
		}
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("fluid: class weights sum to zero")
	}
	s.ww /= wsum
	s.wsum = wsum

	d := len(cfg.DB.Nodes)
	for i, spec := range [...]TierSpec{cfg.Web, cfg.App, cfg.DB} {
		if err := s.deriveTier(i, spec, cfg.Classes, wsum, d); err != nil {
			return nil, err
		}
	}
	s.deriveClasses(cfg.Classes, wsum, d)

	if cfg.RampUpSec <= 0 {
		s.entered = float64(cfg.Sessions)
		s.refusedActive = float64(cfg.Refused)
		s.qThink = s.entered
	}
	return s, nil
}

// svcFor returns a class's CPU service time at tier i after demand
// scaling and hardware speed.
func svcFor(c Class, i int, scale, speed float64) float64 {
	demand := [numTiers]float64{c.Web, c.App, c.DB}[i]
	if scale > 0 {
		demand *= scale
	}
	return demand / speed
}

// deriveTier fills one tierState from its spec and the class mix. The
// database tier models RAIDb-1: reads visit one of d replicas, writes
// visit all of them and complete at the slowest.
func (s *Solver) deriveTier(i int, spec TierSpec, classes []Class, wsum float64, d int) error {
	t := &s.tiers[i]
	t.nodes = len(spec.Nodes)

	// Tier-aggregate hardware: per-node cores and core-weighted mean
	// speed. Tiers are allocated from one node pool, so heterogeneity
	// within a tier is the exception; averaging keeps the math exact for
	// the homogeneous case and sane otherwise.
	var cores, totalCores int
	var speedSum, coreSum float64
	diskRate, netRate := math.MaxFloat64, math.MaxFloat64
	for _, n := range spec.Nodes {
		totalCores += n.Cores
		speedSum += float64(n.Cores) * n.Speed
		coreSum += float64(n.Cores)
		if n.DiskRate < diskRate {
			diskRate = n.DiskRate
		}
		if n.NetRate < netRate {
			netRate = n.NetRate
		}
	}
	cores = totalCores / t.nodes
	if cores < 1 {
		cores = 1
	}
	t.cores = cores
	speed := speedSum / coreSum

	if spec.DiskSec > 0 && diskRate > 0 {
		t.diskSvc = spec.DiskSec / diskRate
	}
	if spec.NetBytes > 0 && netRate > 0 {
		t.netSvc = spec.NetBytes / netRate
	}

	// Class-conditional CPU services at this tier.
	var readSvc, writeSvc, readMass, writeMass float64
	for _, c := range classes {
		svc := svcFor(c, i, spec.CPUScale, speed)
		if c.Write {
			writeSvc += c.Weight * svc
			writeMass += c.Weight
		} else {
			readSvc += c.Weight * svc
			readMass += c.Weight
		}
	}
	readSvc /= wsum
	writeSvc /= wsum // stationary means over the whole mix

	switch i {
	case TierDB:
		// Reads land on one of d replicas; writes are broadcast, so every
		// replica serves the full write demand and the write's CPU latency
		// is the max of d iid exponentials (mean × H_d).
		ww := s.ww
		condRead, condWrite := 0.0, 0.0
		if readMass > 0 {
			condRead = readSvc * wsum / readMass
		}
		if writeMass > 0 {
			condWrite = writeSvc * wsum / writeMass
		}
		t.visitsPerNode = (1-ww)/float64(d) + ww
		t.cpuWorkPerReq = (1-ww)*condRead/float64(d) + ww*condWrite
		if t.visitsPerNode > 0 {
			t.cpuSvcMean = t.cpuWorkPerReq / t.visitsPerNode
		}
		t.svcLatency = t.netSvc + t.diskSvc + (1-ww)*condRead + ww*condWrite*harmonic(d)
	default:
		mean := readSvc + writeSvc
		t.visitsPerNode = 1 / float64(t.nodes)
		t.cpuWorkPerReq = mean / float64(t.nodes)
		t.cpuSvcMean = mean
		t.svcLatency = t.netSvc + t.diskSvc + mean
	}
	// Round-robin over n nodes thins each node's arrival stream to
	// Erlang-n interarrivals (SCV 1/n), so the per-node wait is below
	// the Poisson-arrival Erlang-C value; Allen–Cunneen scales it by
	// (Ca²+Cs²)/2. The DB balancer interleaves reads with broadcast
	// writes, which restores burstiness — leave it at 1.
	t.waitScale = 1
	if i != TierDB && t.nodes > 1 {
		t.waitScale = (1 + 1/float64(t.nodes)) / 2
	}

	// Capacity: the binding leg across CPU, disk, and net.
	t.cap = math.Inf(1)
	if t.cpuWorkPerReq > 0 {
		t.cap = float64(t.cores) / t.cpuWorkPerReq
	}
	if t.diskSvc > 0 {
		if c := 1 / (t.visitsPerNode * t.diskSvc); c < t.cap {
			t.cap = c
		}
	}
	if t.netSvc > 0 {
		if c := 1 / (t.visitsPerNode * t.netSvc); c < t.cap {
			t.cap = c
		}
	}
	if t.cap <= 0 {
		return fmt.Errorf("fluid: tier %q has zero capacity", spec.Name)
	}
	return nil
}

// deriveClasses builds each class's exponential-stage response
// distribution and the shared deterministic leg latency.
func (s *Solver) deriveClasses(classes []Class, wsum float64, d int) {
	s.detSvc = 0
	for i := range s.tiers {
		s.detSvc += s.tiers[i].netSvc + s.tiers[i].diskSvc
	}
	webSpeed := tierSpeed(s.cfg.Web)
	appSpeed := tierSpeed(s.cfg.App)
	dbSpeed := tierSpeed(s.cfg.DB)
	for _, c := range classes {
		if c.Weight <= 0 {
			continue
		}
		cd := classDist{name: c.Name, weight: c.Weight / wsum}
		var rates []float64
		addStage := func(svc float64) {
			if svc > 0 {
				rates = append(rates, 1/svc)
			}
		}
		addStage(svcFor(c, TierWeb, s.cfg.Web.CPUScale, webSpeed))
		addStage(svcFor(c, TierApp, s.cfg.App.CPUScale, appSpeed))
		dbSvc := svcFor(c, TierDB, s.cfg.DB.CPUScale, dbSpeed)
		if dbSvc > 0 {
			if c.Write {
				// max of d iid Exp(μ) = hypoexponential with rates dμ … μ.
				mu := 1 / dbSvc
				for k := d; k >= 1; k-- {
					rates = append(rates, float64(k)*mu)
				}
			} else {
				rates = append(rates, 1/dbSvc)
			}
		}
		cd.rates = distinctRates(rates)
		for _, r := range cd.rates {
			cd.expMean += 1 / r
		}
		s.classes = append(s.classes, cd)
	}
}

func tierSpeed(spec TierSpec) float64 {
	var speedSum, coreSum float64
	for _, n := range spec.Nodes {
		speedSum += float64(n.Cores) * n.Speed
		coreSum += float64(n.Cores)
	}
	return speedSum / coreSum
}

// harmonic returns H_d = Σ 1/i, the mean of the maximum of d iid
// exponentials in units of their mean.
func harmonic(d int) float64 {
	h := 0.0
	for i := 1; i <= d; i++ {
		h += 1 / float64(i)
	}
	return h
}

// distinctRates deterministically perturbs duplicate stage rates apart so
// the closed-form hypoexponential CDF (which requires distinct rates)
// stays well conditioned. The perturbation is a pure function of the
// input order. It works in place: every caller passes a slice it has just
// built.
func distinctRates(rates []float64) []float64 {
	for i := 1; i < len(rates); i++ {
		for j := 0; j < i; j++ {
			if rel := math.Abs(rates[i]-rates[j]) / math.Max(rates[i], rates[j]); rel < 1e-9 {
				rates[i] *= 1 + 1e-6*float64(i+1)
				j = -1 // restart against earlier entries
			}
		}
	}
	return rates
}

// erlangCWait is the M/M/c mean queueing delay at per-node arrival rate
// lambda and mean service svc. Utilization is clamped just below 1 so the
// formula stays finite; the dynamics, not the formula, handle overload.
func erlangCWait(lambda, svc float64, c int) float64 {
	pWait := erlangCP(lambda, svc, c)
	if pWait <= 0 {
		return 0
	}
	if c < 1 {
		c = 1
	}
	rho := lambda * svc / float64(c)
	const maxRho = 0.999
	if rho > maxRho {
		rho = maxRho
	}
	return pWait * svc / (float64(c) * (1 - rho))
}

// erlangCP is the Erlang-C probability that an M/M/c arrival has to
// queue. For c = 1 it reduces to the utilization ρ.
func erlangCP(lambda, svc float64, c int) float64 {
	if lambda <= 0 || svc <= 0 {
		return 0
	}
	if c < 1 {
		c = 1
	}
	a := lambda * svc
	rho := a / float64(c)
	const maxRho = 0.999
	if rho > maxRho {
		rho = maxRho
		a = rho * float64(c)
	}
	sum, term := 1.0, 1.0
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	term *= a / float64(c) // a^c / c!
	return term / ((1-rho)*sum + term)
}

// md1Wait is the M/D/1 mean queueing delay: ρS / 2(1−ρ).
func md1Wait(lambda, svc float64) float64 {
	if lambda <= 0 || svc <= 0 {
		return 0
	}
	rho := lambda * svc
	const maxRho = 0.999
	if rho > maxRho {
		rho = maxRho
	}
	return rho * svc / (2 * (1 - rho))
}

// residence is the tier's analytic mean residence time at tier arrival
// rate lambda: deterministic and CPU services plus one M/D/1 wait per
// attached device and the Erlang-C CPU wait.
func (t *tierState) residence(lambda float64) float64 {
	ln := lambda * t.visitsPerNode
	r := t.svcLatency
	r += erlangCWait(ln, t.cpuSvcMean, t.cores) * t.waitScale
	r += md1Wait(ln, t.diskSvc)
	r += md1Wait(ln, t.netSvc)
	if r < 1e-9 {
		r = 1e-9
	}
	return r
}

// step advances one tier by dt given inAmt arriving fluid, returning the
// completed amount. Sub-saturation follows the exact relaxation solution
// of dq/dt = a − q/R; a backlogged tier (q above its equilibrium level)
// drains work-conservingly at capacity.
func (t *tierState) step(inAmt, dt float64) float64 {
	a := inAmt / dt
	lam := a
	if m := 0.95 * t.cap; lam > m {
		lam = m
	}
	r := t.residence(lam)
	qEq := lam * r
	q1 := qEq + (t.q-qEq)*math.Exp(-dt/r)
	out := t.q + inAmt - q1
	capAmt := t.cap * dt
	if out > capAmt {
		out = capAmt
	}
	if excess := t.q - qEq; excess > 0 {
		floor := excess
		if floor > capAmt {
			floor = capAmt
		}
		if out < floor {
			out = floor
		}
	}
	if out < 0 {
		out = 0
	}
	if avail := t.q + inAmt; out > avail {
		out = avail
	}
	newQ := t.q + inAmt - out
	t.qInt += (t.q + newQ) / 2 * dt
	t.q = newQ
	t.done += out
	return out
}

// SetSessions retargets the admitted population mid-run, the fluid
// equivalent of the DES driver's AddUsers/RemoveUsers. Growth enters the
// think pool immediately (like AddUsers with no ramp); shrinkage drains
// from the think pool first, and sessions caught mid-request leave as
// their requests complete (a leave debt settled against returning fluid).
// Deterministic: the new population is a pure function of the call
// sequence, like every other solver input.
func (s *Solver) SetSessions(n int) {
	if n < 0 {
		n = 0
	}
	delta := float64(n) - float64(s.cfg.Sessions)
	s.cfg.Sessions = n
	if delta >= 0 {
		s.entered += delta
		s.qThink += delta
		return
	}
	leave := -delta
	if leave > s.entered {
		leave = s.entered
	}
	s.entered -= leave
	fromThink := leave
	if fromThink > s.qThink {
		fromThink = s.qThink
	}
	s.qThink -= fromThink
	s.leaveDebt += leave - fromThink
}

// SetTierNodes retargets a tier's node count mid-run — the actuation
// half of an autoscaling policy, the tier-capacity analogue of
// SetSessions. New nodes clone the tier's first node spec (scale-out
// allocates from a homogeneous spare pool). Derived cumulative busy
// counters are folded into epoch baselines before the tier's constants
// are re-derived, so NodeCPUBusy and friends stay continuous and
// monotone across the change; queue mass and completion counters carry
// over untouched. Scaling the database also rebuilds the class
// distributions: the RAIDb-1 write-broadcast latency is the max over d
// replicas, so its hypoexponential shape depends on the replica count.
// Deterministic, like every other solver input.
func (s *Solver) SetTierNodes(tier, n int) {
	if n < 1 {
		n = 1
	}
	spec := s.tierSpec(tier)
	if n == len(spec.Nodes) {
		return
	}
	t := &s.tiers[tier]
	t.cpuBusy0 = s.NodeCPUBusy(tier)
	t.diskBusy0 = s.NodeDiskBusy(tier)
	t.netBusy0 = s.NodeNetBusy(tier)
	t.ops0 = s.NodeOps(tier)
	t.done0 = t.done
	proto := spec.Nodes[0]
	for len(spec.Nodes) < n {
		spec.Nodes = append(spec.Nodes, proto)
	}
	spec.Nodes = spec.Nodes[:n]
	d := len(s.cfg.DB.Nodes)
	// Cannot fail: the new nodes clone a node of the already-validated
	// configuration.
	_ = s.deriveTier(tier, *spec, s.cfg.Classes, s.wsum, d)
	if tier == TierDB {
		s.classes = s.classes[:0]
		s.deriveClasses(s.cfg.Classes, s.wsum, d)
	}
}

// TierNodes reports a tier's current node count.
func (s *Solver) TierNodes(tier int) int { return s.tiers[tier].nodes }

func (s *Solver) tierSpec(tier int) *TierSpec {
	switch tier {
	case TierWeb:
		return &s.cfg.Web
	case TierApp:
		return &s.cfg.App
	default:
		return &s.cfg.DB
	}
}

// Advance integrates to time t: full fixed steps plus one final partial
// step to land exactly on t. Advancing to the past is a no-op.
func (s *Solver) Advance(t float64) {
	for s.now+s.dt <= t+1e-12 {
		s.stepOnce(s.dt)
	}
	if rem := t - s.now; rem > 1e-9 {
		s.stepOnce(rem)
	}
}

func (s *Solver) stepOnce(dt float64) {
	// Ramp-in: sessions enter the think pool uniformly over the window,
	// exactly like the DES driver's uniform start delays.
	if ramp := s.cfg.RampUpSec; ramp > 0 {
		if total := float64(s.cfg.Sessions); s.entered < total {
			in := total / ramp * dt
			if s.entered+in > total {
				in = total - s.entered
			}
			s.entered += in
			s.qThink += in
		}
		if total := float64(s.cfg.Refused); s.refusedActive < total {
			in := total / ramp * dt
			if s.refusedActive+in > total {
				in = total - s.refusedActive
			}
			s.refusedActive += in
		}
	}
	// Think stage: M/∞ with exponential holding. Forward Euler, not the
	// zero-inflow exponential solution: Euler keeps the discrete balance
	// X = qThink/Z exact at steady state (the exponential form would
	// under-drain by (1 − e^(−dt/Z))·Z/dt because returning fluid arrives
	// at the end of the step), so the solver converges to the true closed
	// fixed point independent of step size.
	out := s.qThink * dt / s.think
	if out > s.qThink {
		out = s.qThink
	}
	s.qThink -= out
	x := out
	for i := range s.tiers {
		x = s.tiers[i].step(x, dt)
	}
	// Sessions removed by SetSessions while in service leave at their
	// request's completion: returning fluid pays the leave debt before
	// rejoining the think pool.
	if s.leaveDebt > 0 {
		d := s.leaveDebt
		if d > x {
			d = x
		}
		s.leaveDebt -= d
		x -= d
	}
	s.qThink += x
	// Refused sessions loop think → instant rejection at rate 1/Z each.
	s.rejected += s.refusedActive * dt / s.think
	s.now += dt
}

// Snapshot captures the cumulative counters at the current time;
// StatsBetween turns two snapshots into a measurement window.
type Snapshot struct {
	Time     float64
	Done     float64
	Rejected float64
	QInt     [numTiers]float64
}

// Snapshot returns the current cumulative counters.
func (s *Solver) Snapshot() Snapshot {
	snap := Snapshot{Time: s.now, Done: s.tiers[TierDB].done, Rejected: s.rejected}
	for i := range s.tiers {
		snap.QInt[i] = s.tiers[i].qInt
	}
	return snap
}

// ClassMean is one class's mean response time over a window.
type ClassMean struct {
	Name   string
	MeanMS float64
}

// Stats is one measurement window's aggregate observation, mirroring what
// the DES driver reports for the same window.
type Stats struct {
	DurationSec    float64
	Requests       float64 // successful, in-deadline completions
	Errors         float64 // rejections plus timeouts
	MeanRTms       float64
	P50ms, P90ms   float64
	P99ms, MaxRTms float64
	// TierWaitSec is the window's mean queueing delay per tier (Little's
	// law residence minus the no-wait service latency).
	TierWaitSec [numTiers]float64
	PerClass    []ClassMean
}

// StatsBetween computes the window [a, b]. Response times combine the
// analytic per-class service distribution with the window's measured
// queueing delay: mean residence per tier comes from Little's law on the
// integrated queue levels, so overload windows report the physically
// growing backlog delay rather than an equilibrium formula. Each tier's
// wait enters the distribution as an extra exponential stage, not a
// deterministic shift: the M/M/1 sojourn is memoryless, and shifting by
// the mean of a bursty wait would systematically inflate the median.
// Like Advance, it updates solver state (the window's mixture), so one
// solver serves one goroutine.
func (s *Solver) StatsBetween(a, b Snapshot) Stats {
	st := Stats{DurationSec: b.Time - a.Time}
	comps := b.Done - a.Done
	rejected := b.Rejected - a.Rejected
	if comps <= 1e-12 || st.DurationSec <= 0 {
		st.Errors = rejected
		return st
	}
	lam := comps / st.DurationSec
	var pWait [numTiers]float64
	st.TierWaitSec, pWait = s.windowWaits(a, b, comps, lam)
	shift := s.detSvc
	mix := s.windowMixture(st.TierWaitSec, pWait, lam)

	timeoutFrac := 0.0
	if to := s.cfg.TimeoutSec; to > 0 {
		timeoutFrac = 1 - mix.cdf(to-shift)
		// Branch weights sum to 1 only within float rounding; scrub the
		// resulting dust so sub-knee windows report exactly zero.
		if timeoutFrac < 1e-12 {
			timeoutFrac = 0
		}
	}
	st.Requests = comps * (1 - timeoutFrac)
	st.Errors = rejected + comps*timeoutFrac

	sumW := 0.0
	for _, w := range st.TierWaitSec {
		sumW += w
	}
	mean := shift + sumW
	st.PerClass = make([]ClassMean, 0, len(s.classes))
	for _, c := range s.classes {
		mean += c.weight * c.expMean
		st.PerClass = append(st.PerClass, ClassMean{
			Name: c.name, MeanMS: (shift + sumW + c.expMean) * 1000,
		})
	}
	st.MeanRTms = mean * 1000
	n := math.Round(comps)
	if n < 1 {
		n = 1
	}
	pMax := (n - 0.5) / n
	if pMax > 1-1e-12 {
		pMax = 1 - 1e-12
	}
	q := mix.quantiles([lanes]float64{0.50, 0.90, 0.99, pMax})
	st.P50ms = (shift + q[0]) * 1000
	st.P90ms = (shift + q[1]) * 1000
	st.P99ms = (shift + q[2]) * 1000
	st.MaxRTms = (shift + q[3]) * 1000
	return st
}

// windowWaits returns each tier's mean queueing delay over the window
// [a, b], which saw comps completions at rate lam, and the probability
// that an arrival waits there at all.
func (s *Solver) windowWaits(a, b Snapshot, comps, lam float64) (waits, pWait [numTiers]float64) {
	for i := range s.tiers {
		res := (b.QInt[i] - a.QInt[i]) / comps
		w := res - s.tiers[i].svcLatency
		if w < 0 {
			w = 0
		}
		waits[i] = w
		// Probability an arrival has to wait at all: one minus the chance
		// every leg is clear — Erlang-C for the M/M/c CPU leg, utilization
		// for the single-server deterministic disk and net legs.
		tr := &s.tiers[i]
		lamNode := lam * tr.visitsPerNode
		noWait := 1 - erlangCP(lamNode, tr.cpuSvcMean, tr.cores)
		for _, svc := range [...]float64{tr.diskSvc, tr.netSvc} {
			if svc > 0 {
				rho := lamNode * svc
				if rho > 0.999 {
					rho = 0.999
				}
				noWait *= 1 - rho
			}
		}
		p := 1 - noWait
		if p > 1 {
			p = 1
		}
		if p < 1e-3 {
			p = 1e-3
		}
		pWait[i] = p
	}
	return waits, pWait
}

// windowMixture folds the window's per-tier mean waits into the class
// distributions and returns the solver's mixture, rebuilt for this
// window. A tier's wait is an atom-at-zero mixture — with probability
// pWait the arrival queues for an exponential conditional wait of mean
// W/pWait, otherwise it starts service immediately — so each class
// expands into one hypoexponential branch per subset of tiers that
// imposed a wait. A zero-wait window keeps one branch per class, its
// service-only distribution.
func (s *Solver) windowMixture(waits, pWait [numTiers]float64, lam float64) *mixture {
	var stages [numTiers][]float64 // conditional-wait stage rates per waiting tier
	var probs [numTiers]float64
	n := 0
	for i, w := range waits {
		if w > 1e-12 {
			// Conditional-wait shape: an arrival that waits drains the
			// jobs ahead of it (≈ λW/p), pushing the wait from memoryless
			// (open M/M/1, geometrically distributed queue) toward Erlang
			// (deterministic queue). The closed network sits between the
			// two; half-strength matches the DES across the sweep range.
			stages[n] = waitDist(w/pWait[i], 1+lam*w/pWait[i]/4)
			probs[n] = pWait[i]
			n++
		}
	}
	s.mix.build(s.classes, stages[:n], probs[:n])
	return &s.mix
}

// waitDist shapes one tier's conditional wait: mean m with squared
// coefficient of variation 1/shape, where shape grows with the number of
// jobs an arrival finds ahead of it (a deep queue drains as a sum of
// services — Erlang — while a mostly-empty one is memoryless). Returned
// as exponential stage rates for the hypoexponential machinery.
func waitDist(m, shape float64) []float64 {
	switch {
	case shape <= 1+1e-9:
		return []float64{1 / m}
	case shape < 2:
		// Two stages matching mean m and CV² = 1/shape exactly.
		d := math.Sqrt(2/shape - 1)
		return []float64{2 / (m * (1 + d)), 2 / (m * (1 - d))}
	default:
		// Erlang-like: k stages with means spread linearly ±20% around
		// m/k. Equal rates would make the hypoexponential alphas blow up
		// (the closed form needs distinct rates); the spread keeps them
		// well conditioned while matching the mean exactly and the CV²
		// closely.
		k := int(math.Round(shape))
		if k > 8 {
			k = 8
		}
		rates := make([]float64, k)
		var sum float64
		for i := range rates {
			f := 0.8 + 0.4*float64(i)/float64(k-1)
			rates[i] = f
			sum += f
		}
		for i := range rates {
			rates[i] = sum / (rates[i] * m)
		}
		return rates
	}
}

// mixture is one window's response-time distribution (relative to the
// shared deterministic shift): weighted hypoexponential branches, each
// with CDF F(x) = 1 − Σ αᵢ e^(−λᵢ x) over distinct stage rates λᵢ. Every
// class repeats the same per-tier wait stages, so a window's thousands of
// branch stages draw on a few dozen rates. The rates live once in a table
// deduplicated by bit pattern and each branch term holds an index into
// it, so a CDF evaluation calls math.Exp once per distinct rate. Each
// branch then subtracts its αᵢ·e terms in stage order and clamps to
// [0, 1]: the same float operations, in the same order, as evaluating the
// branch on its own. math.Exp returns the same bits for the same input on
// one CPU, so the result is bit-identical to the per-branch evaluation on
// that CPU. Across CPUs the bits can differ (amd64 takes an FMA path in
// math.Exp only where the CPU has FMA), so stored fluid bytes can too;
// ROADMAP's host-independence item tracks that. The solver owns one
// mixture and rebuilds it in place, so rebuilding it allocates nothing
// once its buffers have grown.
type mixture struct {
	rates    []float64        // distinct stage rates
	exps     [][lanes]float64 // e^(−rate·x) per table entry and lane, refilled by cdfs
	terms    []term           // every branch's stages, branch after branch
	branches []branch
	buf      []float64 // one branch's stage rates while it is built
}

// lanes is the number of points one CDF pass evaluates: StatsBetween's
// four quantiles (p50, p90, p99 and the maximum). cdfs unrolls its term
// walk by hand to this width.
const lanes = 4

// term is one exponential stage of a branch: its CDF coefficient and the
// table index of its rate.
type term struct {
	alpha float64
	rate  int
}

// branch is one class under one subset of waiting tiers: its mixture
// weight, mean and span of terms.
type branch struct {
	weight  float64
	expMean float64 // Σ 1/rate
	lo, hi  int     // terms[lo:hi]
}

// build rebuilds the mixture for a window: one branch per class and
// subset of waiting tiers, with the subset's wait stages appended to the
// class's stages in tier order. Branches of zero weight are dropped.
func (m *mixture) build(classes []classDist, waitStages [][]float64, waitProb []float64) {
	// Grow the buffers at most once per window, to their exact need: each
	// class has 2^k branches, every one carrying the class's stages, and
	// each wait stage appears in half of them.
	subsets := 1 << len(waitStages)
	terms := 0
	for _, c := range classes {
		terms += subsets * len(c.rates)
	}
	for _, w := range waitStages {
		terms += subsets / 2 * len(w) * len(classes)
	}
	if cap(m.terms) < terms {
		m.terms = make([]term, 0, terms)
	}
	if n := subsets * len(classes); cap(m.branches) < n {
		m.branches = make([]branch, 0, n)
	}
	m.rates, m.terms, m.branches = m.rates[:0], m.terms[:0], m.branches[:0]
	for _, c := range classes {
		for sub := 0; sub < subsets; sub++ {
			weight := c.weight
			rates := append(m.buf[:0], c.rates...)
			for j := range waitStages {
				if sub&(1<<j) != 0 {
					weight *= waitProb[j]
					rates = append(rates, waitStages[j]...)
				} else {
					weight *= 1 - waitProb[j]
				}
			}
			m.buf = rates
			if weight > 0 {
				m.addBranch(weight, distinctRates(rates))
			}
		}
	}
	if cap(m.exps) < len(m.rates) {
		m.exps = make([][lanes]float64, len(m.rates))
	}
	m.exps = m.exps[:len(m.rates)]
}

// addBranch appends a branch over distinct stage rates. Its coefficients
// αᵢ = Πⱼ≠ᵢ λⱼ/(λⱼ − λᵢ) are the closed-form hypoexponential ones.
func (m *mixture) addBranch(weight float64, rates []float64) {
	lo := len(m.terms)
	var mean float64
	for i, li := range rates {
		a := 1.0
		for j, lj := range rates {
			if j != i {
				a *= lj / (lj - li)
			}
		}
		m.terms = append(m.terms, term{alpha: a, rate: m.rateIndex(li)})
		mean += 1 / li
	}
	m.branches = append(m.branches, branch{weight: weight, expMean: mean, lo: lo, hi: len(m.terms)})
}

// rateIndex returns r's index in the rate table, adding it if no entry
// has r's exact bit pattern.
func (m *mixture) rateIndex(r float64) int {
	bits := math.Float64bits(r)
	for k, x := range m.rates {
		if math.Float64bits(x) == bits {
			return k
		}
	}
	m.rates = append(m.rates, r)
	return len(m.rates) - 1
}

// cdf evaluates the weighted mixture CDF at x.
func (m *mixture) cdf(x float64) float64 {
	return m.cdfs([lanes]float64{x})[0]
}

// cdfs evaluates the weighted mixture CDF at every lane's point, with one
// pass over the branch terms: each lane keeps its own accumulators and
// does exactly the float operations, in the same order, that evaluating
// its point alone would. A lane at x ≤ 0 reads 0 and costs no
// exponentials, which is how callers idle a lane. A branch with no stages
// is a point mass at zero.
func (m *mixture) cdfs(xs [lanes]float64) [lanes]float64 {
	for l, x := range xs {
		if x <= 0 {
			continue
		}
		for k, r := range m.rates {
			m.exps[k][l] = math.Exp(-r * x)
		}
	}
	// One accumulator per lane, by hand: the compiler keeps scalars in
	// registers but not the elements of an array.
	var f0, f1, f2, f3 float64
	for _, b := range m.branches {
		g0, g1, g2, g3 := 1.0, 1.0, 1.0, 1.0
		for _, t := range m.terms[b.lo:b.hi] {
			e := &m.exps[t.rate]
			g0 -= t.alpha * e[0]
			g1 -= t.alpha * e[1]
			g2 -= t.alpha * e[2]
			g3 -= t.alpha * e[3]
		}
		f0 += b.weight * clamp01(g0)
		f1 += b.weight * clamp01(g1)
		f2 += b.weight * clamp01(g2)
		f3 += b.weight * clamp01(g3)
	}
	f := [lanes]float64{f0, f1, f2, f3}
	for l, x := range xs {
		if x <= 0 {
			f[l] = 0
		}
	}
	return f
}

// clamp01 bounds a branch's CDF value, which rounding can push past
// [0, 1].
func clamp01(g float64) float64 {
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// quantiles inverts the mixture CDF at each lane's probability by
// bisection, stepping the lanes in lockstep so that each pass over the
// terms serves every lane still searching. Each lane runs the fixed
// search on its own: up to 200 doublings of the upper bracket, then up to
// 100 halvings, so lanes finish after different numbers of passes. A
// lane with p ≤ 0 reads 0.
//
// The bisection stops early, with the same result, once the midpoint
// equals an endpoint. If mid == lo and the CDF test keeps lo, nothing
// changes, so every later iteration computes the same mid and takes the
// same branch; if it moves hi to mid instead, lo == hi == mid, and every
// later midpoint is (mid+mid)/2 == mid. The case mid == hi is symmetric.
// Either way the fixed-count loop would end with (lo+hi)/2 == mid.
func (m *mixture) quantiles(ps [lanes]float64) [lanes]float64 {
	hi := 1e-6
	for _, b := range m.branches {
		if v := b.expMean * 4; v > hi {
			hi = v
		}
	}
	var bs [lanes]bisection
	for l, p := range ps {
		bs[l] = bisection{p: p, hi: hi, done: p <= 0}
	}
	for {
		var xs [lanes]float64
		live := false
		for l := range bs {
			if bs[l].next() {
				xs[l] = bs[l].x
				live = true
			}
		}
		if !live {
			break
		}
		f := m.cdfs(xs)
		for l := range bs {
			if !bs[l].done {
				bs[l].take(f[l])
			}
		}
	}
	var q [lanes]float64
	for l := range bs {
		q[l] = bs[l].q
	}
	return q
}

// bisection is one lane of quantiles: the search for the x where the CDF
// reaches p.
type bisection struct {
	p, lo, hi float64
	x         float64 // the point whose CDF the search needs next
	doublings int     // of hi, while bracketing
	steps     int     // halvings of [lo, hi], once bracketed
	bracketed bool
	done      bool
	q         float64 // the quantile, once done
}

// next moves the search to its next CDF evaluation at x and reports
// whether it needs one; false means it is done and q holds the quantile.
func (b *bisection) next() bool {
	if b.done {
		return false
	}
	if !b.bracketed {
		if b.doublings < 200 {
			b.x = b.hi
			return true
		}
		b.bracketed = true
	}
	mid := (b.lo + b.hi) / 2
	if b.steps == 100 || mid == b.lo || mid == b.hi {
		b.q, b.done = mid, true
		return false
	}
	b.x = mid
	return true
}

// take applies the CDF value f at x.
func (b *bisection) take(f float64) {
	switch {
	case !b.bracketed && f < b.p:
		b.hi *= 2
		b.doublings++
	case !b.bracketed:
		b.bracketed = true
	case f < b.p:
		b.lo = b.x
		b.steps++
	default:
		b.hi = b.x
		b.steps++
	}
}

// --- probe views for the monitor -------------------------------------

// NodeCPUBusy reports one node's cumulative CPU busy-seconds. Nodes of a
// tier are interchangeable, so every node reports the tier mean. The
// epoch baseline is nonzero only after SetTierNodes re-derived the
// per-request factor mid-run.
func (s *Solver) NodeCPUBusy(tier int) float64 {
	t := &s.tiers[tier]
	return t.cpuBusy0 + (t.done-t.done0)*t.cpuWorkPerReq
}

// NodeDiskBusy reports one node's cumulative disk busy-seconds (0 when
// the tier declares no disk demand).
func (s *Solver) NodeDiskBusy(tier int) float64 {
	t := &s.tiers[tier]
	return t.diskBusy0 + (t.done-t.done0)*t.visitsPerNode*t.diskSvc
}

// NodeNetBusy reports one node's cumulative network busy-seconds.
func (s *Solver) NodeNetBusy(tier int) float64 {
	t := &s.tiers[tier]
	return t.netBusy0 + (t.done-t.done0)*t.visitsPerNode*t.netSvc
}

// NodeOps reports one node's cumulative served operations (the fluid
// equivalent of a station's completion counter).
func (s *Solver) NodeOps(tier int) float64 {
	t := &s.tiers[tier]
	return t.ops0 + (t.done-t.done0)*t.visitsPerNode
}

// NodeJobs reports one node's current in-flight job level.
func (s *Solver) NodeJobs(tier int) float64 {
	t := &s.tiers[tier]
	return t.q / float64(t.nodes)
}

// NodeCores reports a tier's per-node CPU count (the Erlang-C server
// count), the denominator for windowed CPU-utilization sampling:
// util = ΔNodeCPUBusy / (Δt × NodeCores).
func (s *Solver) NodeCores(tier int) int { return s.tiers[tier].cores }
