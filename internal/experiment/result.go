package experiment

import (
	"fmt"

	"elba/internal/expr"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// assembleResult builds a trial's stored result. The key, the completion
// rules and the utilization columns are the same for every engine; the
// request statistics of the measured run come from the engine.
func assembleResult(e *spec.Experiment, d *mulini.Deployment, eng engine, mon *monitor.Monitor,
	hostOf map[string]string, cfg TrialConfig, runStart, runEnd float64) store.Result {

	dur := runEnd - runStart
	res := eng.fill(store.Result{
		Key: store.Key{
			Experiment:    e.Name,
			Topology:      d.Topology.String(),
			Users:         cfg.Users,
			WriteRatioPct: cfg.WriteRatioPct,
		},
		Engine:         cfg.Engine,
		RunSeconds:     dur,
		CollectedBytes: mon.CollectedBytes(),
		TierCPU:        map[string]float64{},
		HostCPU:        map[string]float64{},
	})
	if res.Requests > 0 {
		res.Throughput = float64(res.Requests) / dur
	}
	res.FaultProfile = cfg.FaultProfile
	if len(cfg.FaultPlan) > 0 {
		res.FaultEvents = make([]string, len(cfg.FaultPlan))
		for i, fe := range cfg.FaultPlan {
			res.FaultEvents[i] = fe.String()
		}
	}

	collectUtilization(&res, d, mon, hostOf, runStart, runEnd)

	total := res.Requests + res.Errors
	switch {
	case total == 0:
		res.Completed = false
		res.FailReason = "no requests completed during the run period"
	case res.ErrorRate() > FailureErrorRate:
		res.Completed = false
		res.FailReason = fmt.Sprintf("error rate %.1f%% exceeds %.0f%%",
			res.ErrorRate()*100, FailureErrorRate*100)
	default:
		res.Completed = true
	}
	return res
}

// collectUtilization aggregates the monitor's utilization series over the
// run window into per-host and per-tier means, exactly as the paper's
// analysis pipeline reads sysstat output. Only roles of the modelled
// tiers count (the client host is memory-only). Disk and network maps
// stay nil (and thus absent from stored output) unless the run observed
// those resources.
func collectUtilization(res *store.Result, d *mulini.Deployment, mon *monitor.Monitor,
	hostOf map[string]string, runStart, runEnd float64) {

	tierSums := map[string]float64{}
	tierCounts := map[string]int{}
	// Allocated lazily: a CPU-only trial (no declared demands) must not
	// allocate for resources it never observed.
	var diskSums, netSums map[string]float64
	var diskCounts, netCounts map[string]int
	for _, a := range d.Assignments {
		if _, ok := expr.TierIndex(a.Tier); !ok {
			continue
		}
		host := hostOf[a.Role]
		if host == "" {
			continue
		}
		if ts, ok := mon.Series(host, "cpu"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				res.HostCPU[a.Role] = mean
				tierSums[a.Tier] += mean
				tierCounts[a.Tier]++
			}
		}
		if ts, ok := mon.Series(host, "disk-util"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				if res.HostDisk == nil {
					res.HostDisk = map[string]float64{}
					diskSums = map[string]float64{}
					diskCounts = map[string]int{}
				}
				res.HostDisk[a.Role] = mean
				diskSums[a.Tier] += mean
				diskCounts[a.Tier]++
			}
		}
		if ts, ok := mon.Series(host, "net-util"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				if res.HostNet == nil {
					res.HostNet = map[string]float64{}
					netSums = map[string]float64{}
					netCounts = map[string]int{}
				}
				res.HostNet[a.Role] = mean
				netSums[a.Tier] += mean
				netCounts[a.Tier]++
			}
		}
	}
	for tier, sum := range tierSums {
		res.TierCPU[tier] = sum / float64(tierCounts[tier])
	}
	for tier, sum := range diskSums {
		if res.TierDisk == nil {
			res.TierDisk = map[string]float64{}
		}
		res.TierDisk[tier] = sum / float64(diskCounts[tier])
	}
	for tier, sum := range netSums {
		if res.TierNet == nil {
			res.TierNet = map[string]float64{}
		}
		res.TierNet[tier] = sum / float64(netCounts[tier])
	}
}
