package experiment

import (
	"errors"

	"elba/internal/deploy"
	"elba/internal/metrics"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// replicaSeed derives replica i's seed from the workload point's base
// seed. Each replica's random stream is a pure function of (base, i), so
// the aggregate is bit-identical however the replicas are scheduled.
func replicaSeed(base uint64, i int) uint64 {
	return base ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
}

// RunReplicatedTrialParallel runs a workload point `repeat` times with
// independent seeds, on up to `workers` goroutines, and aggregates the
// results: response-time and throughput means carry 95% confidence
// half-widths, counters are summed, and the aggregate is marked failed if
// any replica failed. With repeat <= 1 it is RunTrial.
//
// Replication is the standard answer to the "random fluctuations ... at
// saturation" the paper observes (§IV.A): the confidence interval makes
// the fluctuation quantitative.
//
// Replica seeds are derived from the replica index alone and replicas fold
// into the aggregate in index order, each as soon as it and every earlier
// one have finished, so the result is bit-identical for every worker
// count. Every replica runs, and the errors of all failed replicas are
// joined.
func RunReplicatedTrialParallel(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement,
	cfg TrialConfig, repeat, workers int) (*TrialOutcome, error) {

	if repeat <= 1 {
		return RunTrial(e, d, p, cfg)
	}
	base := trialSeed(e, d, cfg)
	outs := make([]*TrialOutcome, repeat)
	errs := make([]error, repeat)
	var last *TrialOutcome
	var rt, p50, p90, p99, x metrics.Summary
	var agg store.Result
	// Replica sketches fold in index order so the aggregate digest is
	// bit-identical for every worker count, like everything else here.
	var sketch *metrics.TDigest
	tierSum := map[string]float64{}
	hostSum := map[string]float64{}
	ordered(repeat, workers, func(i int) bool {
		rcfg := cfg
		rcfg.Seed = replicaSeed(base, i)
		outs[i], errs[i] = RunTrial(e, d, p, rcfg)
		return false
	}, func(i int) {
		out := outs[i]
		outs[i] = nil // release the replica and its monitor
		if out == nil {
			return // failed: the joined error reports it
		}
		last = out
		r := out.Result
		if i == 0 {
			// agg starts as replica 0's result, which also carries that
			// replica's trace report (when tracing is on): trace analysis is
			// per-kernel, so the aggregate keeps the deterministic first
			// replica's view rather than merging incomparable span sets.
			agg = r
			agg.TierCPU = map[string]float64{}
			agg.HostCPU = map[string]float64{}
			agg.Requests, agg.Errors, agg.CollectedBytes = 0, 0, 0
			agg.InjectedErrors = 0
			agg.MaxRTms = 0
			agg.Completed = true
		}
		rt.Observe(r.AvgRTms)
		p50.Observe(r.P50ms)
		p90.Observe(r.P90ms)
		p99.Observe(r.P99ms)
		x.Observe(r.Throughput)
		if r.MaxRTms > agg.MaxRTms {
			agg.MaxRTms = r.MaxRTms
		}
		agg.Requests += r.Requests
		agg.Errors += r.Errors
		agg.InjectedErrors += r.InjectedErrors
		agg.CollectedBytes += r.CollectedBytes
		if !r.Completed {
			agg.Completed = false
			if agg.FailReason == "" {
				agg.FailReason = r.FailReason
			}
		}
		for tier, u := range r.TierCPU {
			tierSum[tier] += u
		}
		for host, u := range r.HostCPU {
			hostSum[host] += u
		}
		if r.RTSketch != nil {
			if sketch == nil {
				sketch = metrics.NewTDigest(r.RTSketch.Compression())
			}
			sketch.Merge(r.RTSketch)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if sketch != nil {
		sketch.Compress()
	}
	agg.RTSketch = sketch
	agg.AvgRTms = rt.Mean()
	agg.P50ms = p50.Mean()
	agg.P90ms = p90.Mean()
	agg.P99ms = p99.Mean()
	agg.Throughput = x.Mean()
	agg.Replicas = repeat
	agg.AvgRTCI95ms = rt.CI95()
	agg.ThroughputCI95 = x.CI95()
	for tier, sum := range tierSum {
		agg.TierCPU[tier] = sum / float64(repeat)
	}
	for host, sum := range hostSum {
		agg.HostCPU[host] = sum / float64(repeat)
	}
	last.Result = agg
	return last, nil
}
