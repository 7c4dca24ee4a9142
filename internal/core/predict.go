package core

import (
	"fmt"

	"elba/internal/cim"
	"elba/internal/experiment"
	"elba/internal/mva"
	"elba/internal/spec"
)

// Prediction is the analytical (MVA) counterpart of a trial result. The
// paper positions experimental observation as providing "validation
// points for model-based characterizations" (§I); Predict produces the
// model side of that comparison for any configuration the testbed can
// measure.
type Prediction struct {
	// ResponseTimeMS is the predicted mean response time.
	ResponseTimeMS float64
	// Throughput is the predicted rate in requests/second.
	Throughput float64
	// TierUtilization maps tier → predicted utilization percent.
	TierUtilization map[string]float64
}

// Predict solves the exact MVA model of one experiment configuration.
// The model shares the workload profile and hardware catalog with the
// simulator but knows nothing of connection pools, failures, or
// RAIDb-1 broadcast synchronization beyond its mean-demand effect — the
// gaps between Predict and the measured results are the paper's argument
// for observation.
func (c *Characterizer) Predict(e *spec.Experiment, topo spec.Topology, writeRatioPct float64, users int) (Prediction, error) {
	if users < 1 {
		return Prediction{}, fmt.Errorf("core: prediction needs at least one user")
	}
	profile, err := experiment.Model(e, writeRatioPct)
	if err != nil {
		return Prediction{}, err
	}
	speeds, err := tierSpeeds(c.catalog, e)
	if err != nil {
		return Prediction{}, err
	}
	nw, err := mva.FromProfile(profile, topo, speeds)
	if err != nil {
		return Prediction{}, err
	}
	r, err := nw.Solve(users)
	if err != nil {
		return Prediction{}, err
	}
	p := Prediction{
		ResponseTimeMS:  r.ResponseTime * 1000,
		Throughput:      r.Throughput,
		TierUtilization: map[string]float64{},
	}
	for i, tier := range []string{"web", "app", "db"} {
		p.TierUtilization[tier] = r.Utilization[i] * 100
	}
	return p, nil
}

// tierSpeeds resolves per-tier node characteristics from the platform
// catalog and the experiment's allocation pinning, the same information
// the deployment engine uses to allocate real (simulated) nodes.
func tierSpeeds(cat *cim.Catalog, e *spec.Experiment) (mva.TierSpeeds, error) {
	platform, ok := cat.PlatformByName(e.Platform)
	if !ok {
		return mva.TierSpeeds{}, fmt.Errorf("core: platform %q not in catalog", e.Platform)
	}
	pool := func(tier string) (cim.NodePool, error) {
		want := e.Allocate[tier]
		for _, p := range platform.Pools {
			if want == "" || p.NodeType == want {
				return p, nil
			}
		}
		return cim.NodePool{}, fmt.Errorf("core: platform %q has no %q nodes", e.Platform, want)
	}
	var out mva.TierSpeeds
	web, err := pool("web")
	if err != nil {
		return out, err
	}
	app, err := pool("app")
	if err != nil {
		return out, err
	}
	db, err := pool("db")
	if err != nil {
		return out, err
	}
	const ref = 3000
	out = mva.TierSpeeds{
		WebSpeed: float64(web.CPUMHz) / ref, WebCores: web.CPUCount,
		AppSpeed: float64(app.CPUMHz) / ref, AppCores: app.CPUCount,
		DBSpeed: float64(db.CPUMHz) / ref, DBCores: db.CPUCount,
	}
	return out, nil
}
