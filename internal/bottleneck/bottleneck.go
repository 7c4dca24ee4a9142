// Package bottleneck implements the observation-based bottleneck analysis
// the paper's scale-out strategy relies on (§V.A): "if we are able to see
// a system component bottleneck (e.g., application server in RUBiS), we
// increase the number of the bottleneck resource to alleviate the
// bottleneck". Detection works purely from observed trial results — tier
// CPU utilization, error character, and response-time trends — never from
// model assumptions.
package bottleneck

import (
	"fmt"
	"sort"
	"strings"

	"elba/internal/store"
)

// Thresholds parameterize detection.
type Thresholds struct {
	// SaturationCPU is the mean utilization (percent) above which a tier
	// is considered saturated.
	SaturationCPU float64
	// NearSaturationCPU marks a tier as the leading suspect even before
	// full saturation.
	NearSaturationCPU float64
}

// DefaultThresholds match the behaviour described in the paper's
// analysis: app and DB tiers visibly pin their CPUs at the knee.
var DefaultThresholds = Thresholds{SaturationCPU: 85, NearSaturationCPU: 70}

// Verdict is the analysis outcome for one trial.
type Verdict struct {
	// Tier is the diagnosed bottleneck tier ("web", "app", "db"), or
	// "none" when the system is unsaturated, or "sessions" when the
	// failure is connection-pool exhaustion rather than CPU.
	Tier string
	// Resource names the contended resource behind the verdict: "cpu",
	// "disk", or "net". Empty for failure verdicts (sessions, outage) and
	// for trials with no utilization observations.
	Resource string
	// Saturated reports whether the tier crossed the saturation
	// threshold.
	Saturated bool
	// Reason is a human-readable explanation for the report.
	Reason string
}

// resourceLabel renders a resource name for verdict reasons. CPU keeps
// its historical upper-case spelling so CPU-bound reasons stay
// byte-identical to pre-multi-resource output.
func resourceLabel(res string) string {
	if res == "cpu" {
		return "CPU"
	}
	return res
}

// resourceRank breaks utilization ties deterministically: the classic
// CPU diagnosis wins over the newer resources at equal utilization.
func resourceRank(res string) int {
	switch res {
	case "cpu":
		return 0
	case "disk":
		return 1
	default:
		return 2
	}
}

// Detect diagnoses the bottleneck from one trial's observations.
func Detect(r store.Result, th Thresholds) Verdict {
	if th.SaturationCPU == 0 {
		th = DefaultThresholds
	}
	// Failures first. A failed trial with strongly asymmetric per-host
	// utilization within one replica group points at a partial outage
	// (one server refusing connections while its peers absorb the load);
	// symmetric failure points at connection-pool exhaustion.
	if !r.Completed && r.ErrorRate() > 0.02 {
		if group, lo, hi, ok := utilizationImbalance(r.HostCPU); ok {
			return Verdict{
				Tier: "outage", Saturated: true,
				Reason: fmt.Sprintf("trial failed with %.1f%% errors and asymmetric %s utilization (%.0f%% vs %.0f%%): partial server outage",
					r.ErrorRate()*100, group, lo, hi),
			}
		}
		return Verdict{
			Tier: "sessions", Saturated: true,
			Reason: fmt.Sprintf("trial failed with %.1f%% errors: connection pool exhausted", r.ErrorRate()*100),
		}
	}
	// Rank (tier, resource) candidates by utilization, deterministically.
	// CPU is always observed; disk and network utilization exist only when
	// the experiment declared demands on those resources.
	type tierUtil struct {
		tier string
		res  string
		util float64
	}
	var tiers []tierUtil
	for tier, u := range r.TierCPU {
		tiers = append(tiers, tierUtil{tier, "cpu", u})
	}
	for tier, u := range r.TierDisk {
		tiers = append(tiers, tierUtil{tier, "disk", u})
	}
	for tier, u := range r.TierNet {
		tiers = append(tiers, tierUtil{tier, "net", u})
	}
	sort.Slice(tiers, func(i, j int) bool {
		if tiers[i].util != tiers[j].util {
			return tiers[i].util > tiers[j].util
		}
		if tiers[i].tier != tiers[j].tier {
			return tiers[i].tier < tiers[j].tier
		}
		return resourceRank(tiers[i].res) < resourceRank(tiers[j].res)
	})
	if len(tiers) == 0 {
		return Verdict{Tier: "none", Reason: "no utilization observations"}
	}
	top := tiers[0]
	label := resourceLabel(top.res)
	switch {
	case top.util >= th.SaturationCPU:
		return Verdict{
			Tier: top.tier, Resource: top.res, Saturated: true,
			Reason: fmt.Sprintf("%s tier %s at %.1f%% (saturated)", top.tier, label, top.util),
		}
	case top.util >= th.NearSaturationCPU:
		return Verdict{
			Tier: top.tier, Resource: top.res, Saturated: false,
			Reason: fmt.Sprintf("%s tier %s at %.1f%% (approaching saturation)", top.tier, label, top.util),
		}
	default:
		return Verdict{
			Tier: "none", Resource: top.res,
			Reason: fmt.Sprintf("highest tier %s is %s at %.1f%%; system unsaturated", label, top.tier, top.util),
		}
	}
}

// utilizationImbalance looks for a replica group (roles sharing their
// alphabetic prefix, e.g. JONAS1/JONAS2) whose least-loaded member sits
// far below its busiest — the observable signature of a server that
// stopped accepting work mid-run.
func utilizationImbalance(hostCPU map[string]float64) (group string, lo, hi float64, found bool) {
	groups := map[string][]float64{}
	for role, u := range hostCPU {
		prefix := strings.TrimRight(role, "0123456789")
		groups[prefix] = append(groups[prefix], u)
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		us := groups[name]
		if len(us) < 2 {
			continue
		}
		gLo, gHi := us[0], us[0]
		for _, u := range us[1:] {
			if u < gLo {
				gLo = u
			}
			if u > gHi {
				gHi = u
			}
		}
		// A peer at under half the busiest member's load, with real load
		// present, is asymmetric enough to call an outage.
		if gHi >= 30 && gLo < gHi*0.65 {
			return name, gLo, gHi, true
		}
	}
	return "", 0, 0, false
}

// Knee finds the workload at which a response-time series crosses an SLO,
// scanning completed points in increasing-x order. It returns the first
// violating x, or the first failed trial's x when the series breaks
// before violating, and reports found=false for an always-compliant
// series.
func Knee(points []store.SeriesPoint, sloMS float64) (x float64, found bool) {
	sorted := make([]store.SeriesPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	for _, p := range sorted {
		if !p.OK {
			return p.X, true
		}
		if p.Y > sloMS {
			return p.X, true
		}
	}
	return 0, false
}

// Improvement reports the percent response-time reduction from base to
// variant, the paper's Table 6 metric ("percentage of response time
// decrease").
func Improvement(baseRTms, variantRTms float64) float64 {
	if baseRTms <= 0 {
		return 0
	}
	return (baseRTms - variantRTms) / baseRTms * 100
}

// SaturationUsers estimates the saturation population of a series as the
// knee against a relative SLO: the point where response time exceeds
// multiple × the series' lowest observed response time. The paper reads
// saturation points off Figures 5–6 this way ("the 1-2-1 configuration
// saturates at about 500 users").
func SaturationUsers(points []store.SeriesPoint, multiple float64) (float64, bool) {
	if multiple <= 1 {
		multiple = 3
	}
	var base float64
	first := true
	for _, p := range points {
		if p.OK && (first || p.Y < base) {
			base, first = p.Y, false
		}
	}
	if first || base <= 0 {
		return 0, false
	}
	return Knee(points, base*multiple)
}
