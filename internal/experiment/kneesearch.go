package experiment

import (
	"errors"
	"fmt"

	"elba/internal/deploy"
	"elba/internal/fault"
	"elba/internal/mulini"
	"elba/internal/spec"
)

// KneeSearchResult reports an adaptive saturation-point search.
type KneeSearchResult struct {
	// Users is the estimated largest population meeting the SLO.
	Users int
	// ViolationUsers is the smallest tested population violating it.
	ViolationUsers int
	// Trials counts the experiments the search actually spent: probes
	// served from the trial cache (repeated populations within a sweep,
	// or points computed by an earlier sweep sharing the runner's cache)
	// cost nothing and are not counted.
	Trials int
	// Probes records every executed (users, avgRTms, completed)
	// measurement; cache-served probes do not appear.
	Probes []KneeProbe
}

// KneeProbe is one measurement taken by the search.
type KneeProbe struct {
	Users     int
	AvgRTms   float64
	Completed bool
}

// KneeSearch locates a configuration's SLO knee by bisection instead of a
// uniform sweep. The paper runs full grids and notes that "the best
// heuristics for experimental design is a topic of ongoing research and
// beyond the scope of this paper" (§II); bisection finds the same knee in
// O(log n) trials, which matters when each trial costs minutes of
// testbed time.
//
// The search brackets [lo, hi]: lo must meet the SLO (it is probed
// first), and if hi also meets it the search reports hi with no
// violation. Resolution is the search's stopping granularity in users.
//
// The search generates and deploys the topology once and runs every
// probe on that placement, as a sweep runs its grid on one deployment.
// Each probe still measures exactly what a fresh RunTrialAt would,
// because placement, node factors and deploy glitches are pure functions
// of (Seed, experiment, topology) and no trial mutates cluster nodes.
//
// Probes run through the runner's trial cache when one is attached, so
// a re-anchored search (new bracket, same spec) reuses every previously
// measured population; without a shared cache an ephemeral per-sweep
// cache still dedupes repeated populations — bisection over a shrinking
// bracket never revisits a population on its own, but the anchor points
// sit outside the loop, and a collapsed interval (hi - lo <= resolution)
// ends the search right back on them. Either way the trial budget per
// sweep is independent of how the probing strategy lands. Errors are
// never cached: a failed testbed run may be retried.
func (r *Runner) KneeSearch(e *spec.Experiment, topo spec.Topology,
	writeRatioPct, sloMS float64, lo, hi, resolution int) (KneeSearchResult, error) {

	if sloMS <= 0 {
		return KneeSearchResult{}, fmt.Errorf("experiment: knee search needs a positive SLO")
	}
	if err := checkBracket(lo, hi); err != nil {
		return KneeSearchResult{}, err
	}
	cache := r.TrialCache
	if cache == nil {
		cache = newEphemeralTrialCache()
	}
	res := KneeSearchResult{}
	err := r.withDeployment(e, topo, func(d *mulini.Deployment, placement *deploy.Placement, prof fault.Profile) error {
		probe := func(users int) (bool, error) {
			out, err := r.trialOn(cache, e, d, placement, prof, users, writeRatioPct)
			if err != nil {
				return false, err
			}
			if !out.FromCache {
				res.Trials++
				res.Probes = append(res.Probes, KneeProbe{
					Users: users, AvgRTms: out.Result.AvgRTms, Completed: out.Result.Completed,
				})
			}
			return out.Result.Completed && out.Result.AvgRTms <= sloMS, nil
		}
		users, violation, err := kneeBisect(probe, lo, hi, resolution)
		if err != nil {
			if errors.Is(err, errKneeLowerBound) {
				return fmt.Errorf("experiment: lower bound %d users already violates the %g ms SLO", lo, sloMS)
			}
			return err
		}
		res.Users = users
		res.ViolationUsers = violation
		return nil
	})
	return res, err
}

// checkBracket rejects a knee-search bracket that cannot hold a knee.
func checkBracket(lo, hi int) error {
	if lo < 1 || hi <= lo {
		return fmt.Errorf("experiment: knee search needs 1 <= lo < hi")
	}
	return nil
}

// errKneeLowerBound marks a search whose lower bound already fails the
// acceptance predicate, so no bracket exists.
var errKneeLowerBound = errors.New("experiment: knee-search lower bound fails the predicate")

// kneeBisect is the trial-free bisection core of KneeSearch: it locates
// the boundary of an acceptance predicate over the user axis. probe
// reports whether a population meets the objective; the search assumes the
// predicate is (approximately) monotone — true at lo, false at hi —
// bisects the bracket to the requested resolution, and returns the last
// accepted population plus the smallest probed violation (0 when hi
// passes). On a non-monotone predicate it still terminates in O(log n)
// probes with probe(users) = true and probe(violation) = false; which
// boundary it converges to depends on which probes land in the dips.
func kneeBisect(probe func(users int) (bool, error), lo, hi, resolution int) (users, violation int, err error) {
	if err := checkBracket(lo, hi); err != nil {
		return 0, 0, err
	}
	if resolution < 1 {
		resolution = 1
	}
	okLo, err := probe(lo)
	if err != nil {
		return 0, 0, err
	}
	if !okLo {
		return 0, lo, errKneeLowerBound
	}
	okHi, err := probe(hi)
	if err != nil {
		return 0, 0, err
	}
	if okHi {
		return hi, 0, nil
	}
	good, bad := lo, hi
	for bad-good > resolution {
		mid := (good + bad) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			good = mid
		} else {
			bad = mid
		}
	}
	return good, bad, nil
}
