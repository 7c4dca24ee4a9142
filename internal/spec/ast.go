// Package spec implements TBL, the Testbed Language the paper uses as
// Mulini's input specification (§II). A TBL document declares one or more
// experiments: the benchmark and platform, the w-a-d topology, the
// workload sweep (users and write ratio), the trial protocol
// (warm-up/run/cool-down), service-level objectives, and monitoring
// configuration. "Simply updating the input TBL specification is enough"
// to reconfigure and redeploy an experiment — that property is the core
// of the automation claim, and this package is where it lives.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Document is a parsed TBL file.
type Document struct {
	Experiments []*Experiment
}

// Range is an inclusive numeric sweep: Lo, Lo+Step, ..., Hi. A fixed
// value is expressed as Lo == Hi with Step 0.
type Range struct {
	Lo, Hi, Step float64
}

// Fixed reports whether the range is a single value.
func (r Range) Fixed() bool { return r.Lo == r.Hi }

// Values expands the range. A fixed range yields one value.
func (r Range) Values() []float64 {
	if r.Fixed() {
		return []float64{r.Lo}
	}
	var out []float64
	for v := r.Lo; v <= r.Hi+1e-9; v += r.Step {
		out = append(out, v)
	}
	return out
}

// Count reports the number of points the range expands to.
func (r Range) Count() int { return len(r.Values()) }

// String renders the range in TBL syntax.
func (r Range) String() string {
	if r.Fixed() {
		return trimFloat(r.Lo)
	}
	return fmt.Sprintf("%s to %s step %s", trimFloat(r.Lo), trimFloat(r.Hi), trimFloat(r.Step))
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// trimFixed renders f in shortest fixed-decimal notation. Unlike %g it
// never switches to exponent form, which the TBL lexer cannot tokenize —
// demand values round-trip through Parse exactly.
func trimFixed(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// Topology is the paper's w-a-d triple: replica counts per tier.
type Topology struct {
	Web, App, DB int
}

// String renders the triple the way the paper writes configurations,
// e.g. "1-8-2".
func (t Topology) String() string { return fmt.Sprintf("%d-%d-%d", t.Web, t.App, t.DB) }

// Nodes reports the number of server machines the topology occupies.
func (t Topology) Nodes() int { return t.Web + t.App + t.DB }

// Workload is the experiment's load sweep.
type Workload struct {
	// Users sweeps the concurrent-user population.
	Users Range
	// UsersExpr, when non-empty, makes the population time-varying: a
	// canonical float expression of the clock (e.g.
	// "100 + 900*ramp(t/300s)") re-evaluated every measurement window.
	// It replaces the Users sweep; the population at t=0 seeds the trial.
	UsersExpr string
	// WriteRatioPct sweeps the database write ratio in percent (0–90).
	WriteRatioPct Range
	// ThinkTimeSec overrides the benchmark's think time (0 = default).
	ThinkTimeSec float64
	// TimeoutSec is the client response timeout (0 = default 30 s).
	TimeoutSec float64
}

// Trial is the warm-up/run/cool-down protocol (paper §III.B).
type Trial struct {
	WarmupSec, RunSec, CooldownSec float64
}

// SLO holds the experiment's service-level objectives in milliseconds;
// zero values are unconstrained.
type SLO struct {
	AvgMS float64
	P90MS float64
	P99MS float64
	// AssertExpr, when non-empty, is a canonical boolean expression
	// (e.g. "p99(rt) < 500ms && util(db, disk) < 0.9") checked against
	// every measurement window; windows where it fails are recorded as
	// SLO violations in the trial result.
	AssertExpr string
}

// Monitor configures the system-level monitors Mulini generates per host.
type Monitor struct {
	// IntervalSec is the sampling interval (sysstat's granularity).
	IntervalSec float64
	// Metrics lists the collected metric families: cpu, memory, network,
	// disk.
	Metrics []string
}

// Fault schedules a fault window during each trial, for failure
// injection studies: the named role misbehaves AtSec seconds into the
// run period and recovers DurationSec later.
type Fault struct {
	// Role is the deployment role to fail, e.g. "JONAS1" or "MYSQL2".
	// Error bursts target the client driver and leave Role empty.
	Role string
	// Kind picks the fault class: "" or "crash" (the original outage),
	// "slowdown", "stall", or "errorburst".
	Kind string
	// Factor is the kind-specific intensity: the effective-speed
	// multiplier for slowdown/stall, the per-request error probability for
	// errorburst. Unused for crash.
	Factor float64
	// AtSec is the window start, in seconds from the run period's start.
	AtSec float64
	// DurationSec is the window length in seconds.
	DurationSec float64
	// WhenExpr, when non-empty, is a canonical boolean guard: the fault
	// window arms at AtSec only if the predicate has held in an observed
	// measurement window by then; otherwise it fires as soon as a later
	// window satisfies it (still running DurationSec).
	WhenExpr string
}

// ResourceDemand declares one tier's per-request demands on its node's
// contended resources beyond the benchmark's calibrated CPU demand — the
// knobs that let a spec reproduce the paper's disk- and network-bound
// knees on the low-end platforms.
type ResourceDemand struct {
	// CPUScale multiplies the benchmark's CPU demand (0 = unchanged).
	CPUScale float64
	// DiskSec is seconds of disk service per request at the reference
	// spindle (0 = no disk demand).
	DiskSec float64
	// NetBytes is the payload carried into the tier per request over its
	// ingress link, in bytes (0 = no network demand).
	NetBytes float64
}

// Scaling is the TBL `scaling` clause: per-population trial-engine
// selection. The exact DES emulates every user session individually; the
// fluid engine aggregates sessions into user-class flow dynamics so
// million-user populations cost the same as hundreds.
type Scaling struct {
	// ThresholdUsers is the population at which engine "auto" switches
	// from the DES to the fluid approximation (0 = never).
	ThresholdUsers int
	// Engine is "des", "fluid", or "auto"; empty means unset (the
	// historical DES path, with no engine recorded in results).
	Engine string
}

// EngineFor resolves the engine for a workload point: "auto" picks the
// fluid engine at or above the threshold and the DES below it.
func (s Scaling) EngineFor(users int) string {
	switch s.Engine {
	case "auto":
		if s.ThresholdUsers > 0 && users >= s.ThresholdUsers {
			return "fluid"
		}
		return "des"
	default:
		return s.Engine
	}
}

// Policy is one autoscaling rule from the TBL `policies` clause: at every
// observation-window boundary whose environment satisfies the predicate,
// the tier gains (or, for `in` policies, loses) Delta servers, subject to
// the replica bound and a per-policy cooldown. This is the actuation half
// of the paper's §V.A scale-out strategy: observe a window, decide, add a
// server — run as a mid-trial controller instead of a human in the loop.
type Policy struct {
	// Tier names the scaled tier: "web", "app", or "db".
	Tier string
	// In selects scale-in (remove servers); the default is scale-out.
	In bool
	// Delta is the number of servers added or removed per firing (≥ 1).
	Delta int
	// WhenExpr is the canonical boolean predicate evaluated against each
	// observation window, e.g. "util(app, cpu) > 0.8".
	WhenExpr string
	// CooldownSec is the minimum protocol time between firings of this
	// policy (0 = every window may fire).
	CooldownSec float64
	// Max bounds a scale-out policy's replica count (required: it sizes
	// the spare node pool the DES allocates from).
	Max int
	// Min floors a scale-in policy's replica count (default 1).
	Min int
}

// Experiment is one TBL experiment block.
type Experiment struct {
	// Name identifies the experiment set, e.g. "rubis-baseline-jonas".
	Name string
	// Benchmark is "rubis", "rubbos", or "tpcapp".
	Benchmark string
	// Platform names the hardware platform: "warp", "rohan", "emulab".
	Platform string
	// AppServer picks the application server for RUBiS ("jonas" or
	// "weblogic"); empty means the benchmark default.
	AppServer string
	// Mix selects a benchmark workload mix where applicable (RUBBoS:
	// "read-only" or "submission").
	Mix string
	// Topology is the w-a-d replica triple. When the experiment sweeps
	// topologies, Topologies holds every triple and Topology the first.
	Topology   Topology
	Topologies []Topology
	Workload   Workload
	Trial      Trial
	SLO        SLO
	Monitor    Monitor
	// Allocate maps tier name → node type for platforms with
	// heterogeneous pools (Emulab's low-end/high-end).
	Allocate map[string]string
	// Demands maps tier name → per-request resource demands (disk,
	// network, CPU scaling). Absent tiers keep the CPU-only model.
	Demands map[string]ResourceDemand
	// Scaling selects the trial engine by population: at or above the
	// threshold the runner switches from the exact per-session DES to the
	// aggregated fluid approximation.
	Scaling Scaling
	// Policies are autoscaling rules evaluated at observation-window
	// boundaries during every trial, in declaration order.
	Policies []Policy
	// Faults schedules fault windows within every trial.
	Faults []Fault
	// FaultProfile names a built-in random fault profile ("none", "light",
	// "heavy") applied on top of the explicit Faults list; empty disables.
	FaultProfile string
	// Repeat runs every workload point this many times with independent
	// seeds and stores the aggregate with confidence intervals (default 1).
	Repeat int
	// Seed makes the experiment's randomness reproducible.
	Seed uint64
}

// AllTopologies returns the experiment's topology sweep (at least one).
func (e *Experiment) AllTopologies() []Topology {
	if len(e.Topologies) > 0 {
		return e.Topologies
	}
	return []Topology{e.Topology}
}

// TrialCount reports the number of individual trials the experiment
// expands to: topologies × user points × write-ratio points.
func (e *Experiment) TrialCount() int {
	return len(e.AllTopologies()) * e.Workload.Users.Count() * e.Workload.WriteRatioPct.Count()
}

// String renders the experiment back to canonical TBL. The output
// round-trips through Parse.
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment %q {\n", e.Name)
	fmt.Fprintf(&b, "\tbenchmark %s;\n", e.Benchmark)
	fmt.Fprintf(&b, "\tplatform %s;\n", e.Platform)
	if e.AppServer != "" {
		fmt.Fprintf(&b, "\tappserver %s;\n", e.AppServer)
	}
	if e.Mix != "" {
		fmt.Fprintf(&b, "\tmix %s;\n", e.Mix)
	}
	if len(e.Topologies) > 1 {
		tris := make([]string, len(e.Topologies))
		for i, t := range e.Topologies {
			tris[i] = t.String()
		}
		fmt.Fprintf(&b, "\ttopologies %s;\n", strings.Join(tris, ", "))
	} else {
		t := e.Topology
		fmt.Fprintf(&b, "\ttopology { web %d; app %d; db %d; }\n", t.Web, t.App, t.DB)
	}
	fmt.Fprintf(&b, "\tworkload {\n")
	if e.Workload.UsersExpr != "" {
		fmt.Fprintf(&b, "\t\tusers %s;\n", e.Workload.UsersExpr)
	} else {
		fmt.Fprintf(&b, "\t\tusers %s;\n", e.Workload.Users)
	}
	if !(e.Workload.WriteRatioPct.Fixed() && e.Workload.WriteRatioPct.Lo == 0) || e.Benchmark == "rubis" {
		fmt.Fprintf(&b, "\t\twriteratio %s;\n", e.Workload.WriteRatioPct)
	}
	if e.Workload.ThinkTimeSec > 0 {
		fmt.Fprintf(&b, "\t\tthinktime %ss;\n", trimFloat(e.Workload.ThinkTimeSec))
	}
	if e.Workload.TimeoutSec > 0 {
		fmt.Fprintf(&b, "\t\ttimeout %ss;\n", trimFloat(e.Workload.TimeoutSec))
	}
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "\ttrial { warmup %ss; run %ss; cooldown %ss; }\n",
		trimFloat(e.Trial.WarmupSec), trimFloat(e.Trial.RunSec), trimFloat(e.Trial.CooldownSec))
	if e.SLO != (SLO{}) {
		fmt.Fprintf(&b, "\tslo {")
		if e.SLO.AvgMS > 0 {
			fmt.Fprintf(&b, " avg %sms;", trimFloat(e.SLO.AvgMS))
		}
		if e.SLO.P90MS > 0 {
			fmt.Fprintf(&b, " p90 %sms;", trimFloat(e.SLO.P90MS))
		}
		if e.SLO.P99MS > 0 {
			fmt.Fprintf(&b, " p99 %sms;", trimFloat(e.SLO.P99MS))
		}
		if e.SLO.AssertExpr != "" {
			fmt.Fprintf(&b, " assert %s;", e.SLO.AssertExpr)
		}
		fmt.Fprintf(&b, " }\n")
	}
	fmt.Fprintf(&b, "\tmonitor { interval %ss; metrics %s; }\n",
		trimFloat(e.Monitor.IntervalSec), strings.Join(e.Monitor.Metrics, ", "))
	if len(e.Allocate) > 0 {
		fmt.Fprintf(&b, "\tallocate {")
		for _, tier := range []string{"web", "app", "db"} {
			if nt, ok := e.Allocate[tier]; ok {
				fmt.Fprintf(&b, " %s %s;", tier, nt)
			}
		}
		fmt.Fprintf(&b, " }\n")
	}
	if len(e.Demands) > 0 {
		fmt.Fprintf(&b, "\tdemands {")
		for _, tier := range []string{"web", "app", "db"} {
			d, ok := e.Demands[tier]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, " %s {", tier)
			if d.CPUScale > 0 {
				fmt.Fprintf(&b, " cpu %s;", trimFixed(d.CPUScale))
			}
			if d.DiskSec > 0 {
				// Rendered in seconds: the unit multiplier is exactly 1, so
				// the rendering re-parses to the identical float (fixpoint).
				fmt.Fprintf(&b, " disk %ss;", trimFixed(d.DiskSec))
			}
			if d.NetBytes > 0 {
				fmt.Fprintf(&b, " net %s;", trimFixed(d.NetBytes))
			}
			fmt.Fprintf(&b, " }")
		}
		fmt.Fprintf(&b, " }\n")
	}
	if e.Scaling != (Scaling{}) {
		fmt.Fprintf(&b, "\tscaling {")
		if e.Scaling.ThresholdUsers > 0 {
			fmt.Fprintf(&b, " threshold %d;", e.Scaling.ThresholdUsers)
		}
		if e.Scaling.Engine != "" {
			fmt.Fprintf(&b, " engine %s;", e.Scaling.Engine)
		}
		fmt.Fprintf(&b, " }\n")
	}
	if len(e.Policies) > 0 {
		fmt.Fprintf(&b, "\tpolicies {")
		for _, pol := range e.Policies {
			if pol.In {
				fmt.Fprintf(&b, " scale %s in by %d when %s", pol.Tier, pol.Delta, pol.WhenExpr)
			} else {
				fmt.Fprintf(&b, " scale %s by %d when %s", pol.Tier, pol.Delta, pol.WhenExpr)
			}
			if pol.CooldownSec > 0 {
				fmt.Fprintf(&b, " cooldown %ss", trimFloat(pol.CooldownSec))
			}
			if pol.In {
				if pol.Min > 0 {
					fmt.Fprintf(&b, " min %d", pol.Min)
				}
			} else if pol.Max > 0 {
				fmt.Fprintf(&b, " max %d", pol.Max)
			}
			b.WriteString(";")
		}
		fmt.Fprintf(&b, " }\n")
	}
	if len(e.Faults) > 0 || e.FaultProfile != "" {
		fmt.Fprintf(&b, "\tfaults {")
		if e.FaultProfile != "" {
			fmt.Fprintf(&b, " profile %s;", e.FaultProfile)
		}
		for _, f := range e.Faults {
			switch f.Kind {
			case "", "crash":
				fmt.Fprintf(&b, " %s at %ss for %ss", f.Role, trimFloat(f.AtSec), trimFloat(f.DurationSec))
			case "errorburst":
				fmt.Fprintf(&b, " client errorburst %s at %ss for %ss",
					trimFloat(f.Factor), trimFloat(f.AtSec), trimFloat(f.DurationSec))
			default:
				fmt.Fprintf(&b, " %s %s %s at %ss for %ss",
					f.Role, f.Kind, trimFloat(f.Factor), trimFloat(f.AtSec), trimFloat(f.DurationSec))
			}
			if f.WhenExpr != "" {
				fmt.Fprintf(&b, " when %s", f.WhenExpr)
			}
			b.WriteString(";")
		}
		fmt.Fprintf(&b, " }\n")
	}
	if e.Repeat > 1 {
		fmt.Fprintf(&b, "\trepeat %d;\n", e.Repeat)
	}
	if e.Seed != 0 {
		fmt.Fprintf(&b, "\tseed %d;\n", e.Seed)
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}
