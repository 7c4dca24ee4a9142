package mva

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/spec"
)

// TierSpeeds carries the per-tier node characteristics needed to fold a
// benchmark's reference demands into an MVA network.
type TierSpeeds struct {
	// WebSpeed, AppSpeed, DBSpeed are CPU frequencies relative to the
	// 3 GHz reference.
	WebSpeed, AppSpeed, DBSpeed float64
	// WebCores, AppCores, DBCores are per-node CPU counts.
	WebCores, AppCores, DBCores int
}

// FromProfile builds the analytical model of an n-tier deployment: a
// closed network with the workload's stationary mean demands, the
// topology's replica counts, and a RAIDb-1 correction for the database
// tier (writes are served by every replica, so the per-replica demand is
// w·Dw + (1−w)·Dr/d; MVA sees the tier as one aggregate station with
// d×cores servers at that inflated demand).
func FromProfile(p *bench.Profile, topo spec.Topology, speeds TierSpeeds) (*Network, error) {
	if topo.Web < 1 || topo.App < 1 || topo.DB < 1 {
		return nil, fmt.Errorf("mva: topology %s needs at least one server per tier", topo)
	}
	web, app, _ := p.MeanDemands()

	// Decompose DB demand into read/write classes for the RAIDb-1
	// correction.
	pi := p.Matrix().Stationary()
	var wMass, dbRead, dbWrite float64
	for j, s := range p.Matrix().States() {
		if s.Write {
			wMass += pi[j]
			dbWrite += pi[j] * s.DBDemand
		} else {
			dbRead += pi[j] * s.DBDemand
		}
	}
	// Per-replica DB demand per request under RAIDb-1: the read share is
	// split across replicas, the write share is paid by all of them.
	dbPerReplica := dbWrite + dbRead/float64(topo.DB)

	stations := []Station{
		{Name: "web", Demand: web / speeds.WebSpeed, Servers: topo.Web * max1(speeds.WebCores)},
		{Name: "app", Demand: app / speeds.AppSpeed, Servers: topo.App * max1(speeds.AppCores)},
		{Name: "db", Demand: dbPerReplica / speeds.DBSpeed, Servers: topo.DB * max1(speeds.DBCores)},
	}
	return NewNetwork(p.ThinkTime(), stations)
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
