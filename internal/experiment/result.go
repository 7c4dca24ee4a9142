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

	fold := func(metric string, hostMap, tierMap *map[string]float64) {
		var sums [expr.NumTiers]float64
		var counts [expr.NumTiers]int
		for _, a := range d.Assignments {
			ti, ok := expr.TierIndex(a.Tier)
			host := hostOf[a.Role]
			if !ok || host == "" {
				continue
			}
			ts, ok := mon.Series(host, metric)
			if !ok {
				continue
			}
			mean, ok := ts.MeanIn(runStart, runEnd)
			if !ok {
				continue
			}
			if *hostMap == nil {
				*hostMap = map[string]float64{}
			}
			(*hostMap)[a.Role] = mean
			sums[ti] += mean
			counts[ti]++
		}
		for ti, n := range counts {
			if n == 0 {
				continue
			}
			if *tierMap == nil {
				*tierMap = map[string]float64{}
			}
			(*tierMap)[tierNames[ti]] = sums[ti] / float64(n)
		}
	}
	fold("cpu", &res.HostCPU, &res.TierCPU)
	fold("disk-util", &res.HostDisk, &res.TierDisk)
	fold("net-util", &res.HostNet, &res.TierNet)
}
