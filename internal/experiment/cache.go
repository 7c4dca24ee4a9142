package experiment

import "elba/internal/store"

// TrialKey identifies one trial as a pure function of its inputs: the
// trial-invariant canonical spec hash, the grid coordinates, and every
// runner knob that reaches the trial's random streams or its stored
// result. Two runs with equal keys produce byte-identical results —
// the determinism guarantee the parallel runner's property tests pin —
// which is what makes memoizing on this key safe across worker counts,
// engines, campaigns, and separate submissions.
type TrialKey struct {
	// SpecHash is spec.Experiment.TrialHash(): the canonical rendering
	// with the swept axes (topology list, users range, write-ratio
	// range) cleared, so overlapping sweeps of the same experiment
	// share keys at overlapping coordinates.
	SpecHash string
	// Topology and the workload point are the grid coordinates.
	Topology      string
	Users         int
	WriteRatioPct float64
	// Engine is the resolved trial engine ("", "des", or "fluid"); the
	// tag is recorded in the stored result, so it splits the key.
	Engine string
	// TimeScale shrinks the trial protocol and with it every measured
	// duration.
	TimeScale float64
	// Seed is an explicit per-trial seed override (0 = derived).
	Seed uint64
	// RootSeed is the runner's root seed mixed into derivations.
	RootSeed uint64
	// FaultProfile names the active fault profile ("" = none).
	FaultProfile string
	// TrialRetries is the per-point retry budget: retried attempts mix
	// fresh seeds and record an attempt count.
	TrialRetries int
	// TraceRate and TraceExemplars shape the persisted trace report.
	TraceRate      float64
	TraceExemplars int
	// SketchRT records whether the trial attaches a response-time sketch
	// to its stored result; the sketch changes the result bytes, so it
	// splits the key.
	SketchRT bool
}

// TrialCache memoizes trial results by TrialKey. Do returns the cached
// result for k when present; otherwise it runs compute, caches a
// successful result, and returns it. hit reports whether the result
// came from the cache (including from another in-flight computation of
// the same key). Errors are never cached: a failed run may be retried,
// and concurrent callers of a failing key each observe their own error.
//
// Implementations must be safe for concurrent use; the campaign
// subsystem additionally provides single-flight coalescing so a key is
// computed at most once however many campaigns request it at once.
type TrialCache interface {
	Do(k TrialKey, compute func() (store.Result, error)) (res store.Result, hit bool, err error)
}

// trialKey assembles the memo key for one workload point on topo of the
// experiment whose TrialHash is hash.
func (r *Runner) trialKey(hash, topo string, cfg TrialConfig) TrialKey {
	return TrialKey{
		SpecHash:       hash,
		Topology:       topo,
		Users:          cfg.Users,
		WriteRatioPct:  cfg.WriteRatioPct,
		Engine:         cfg.Engine,
		TimeScale:      cfg.TimeScale,
		Seed:           cfg.Seed,
		RootSeed:       cfg.RootSeed,
		FaultProfile:   cfg.FaultProfile,
		TrialRetries:   r.TrialRetries,
		TraceRate:      cfg.TraceRate,
		TraceExemplars: cfg.TraceExemplars,
		SketchRT:       cfg.SketchRT,
	}
}
