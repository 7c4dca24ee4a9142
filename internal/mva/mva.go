// Package mva implements exact Mean Value Analysis for closed
// multi-station queueing networks with think time — the "traditional
// performance analysis" the paper contrasts its observation-based
// approach against (§I, §VI). The paper argues that experimental results
// "can be used to confirm or disprove analytical models within the system
// parameter ranges covered by the experiments"; this package makes that
// comparison executable: it predicts response time, throughput, and
// per-station utilization for the same n-tier configurations the
// simulated testbed measures, so the deviations the paper expects —
// connection-pool failures, write broadcast, saturation fluctuations —
// show up as observed-vs-predicted gaps.
package mva

import (
	"fmt"
	"math"
)

// Station describes one service center in the closed network.
type Station struct {
	// Name identifies the station in results.
	Name string
	// Demand is the mean service demand per customer visit in seconds
	// (already folded with the visit ratio).
	Demand float64
	// Servers is the number of parallel servers. Exact MVA handles
	// single-server queueing stations; multi-server stations are modelled
	// with the standard approximation of dividing demand by the server
	// count and treating residual queueing at the aggregate (adequate for
	// the near-balanced loads our tiers carry).
	Servers int
}

// Result is the MVA solution for one population size.
type Result struct {
	// Throughput is the system throughput in customers/second.
	Throughput float64
	// ResponseTime is the mean end-to-end response time excluding think
	// time, in seconds.
	ResponseTime float64
	// Utilization holds each station's utilization in [0, 1] (per
	// server), indexed like the input stations.
	Utilization []float64
}

// Network is a closed queueing network with a think-time delay station.
type Network struct {
	stations []Station
	think    float64
}

// NewNetwork builds a network. think is the mean think time in seconds
// (the delay center customers return to between requests).
func NewNetwork(think float64, stations []Station) (*Network, error) {
	if think < 0 {
		return nil, fmt.Errorf("mva: negative think time")
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("mva: network needs at least one station")
	}
	for i, s := range stations {
		if s.Demand < 0 || math.IsNaN(s.Demand) || math.IsInf(s.Demand, 0) {
			return nil, fmt.Errorf("mva: station %d (%s) has invalid demand %g", i, s.Name, s.Demand)
		}
		if s.Servers < 1 {
			return nil, fmt.Errorf("mva: station %d (%s) needs at least one server", i, s.Name)
		}
	}
	return &Network{stations: stations, think: think}, nil
}

// Solve runs exact MVA for population n and returns the solution at n.
// Complexity is O(n × stations).
func (nw *Network) Solve(n int) (Result, error) {
	results, err := nw.SolveRange(n)
	if err != nil {
		return Result{}, err
	}
	return results[len(results)-1], nil
}

// SolveRange runs exact MVA for populations 1..n and returns all
// solutions in order (the standard recursion computes them anyway).
func (nw *Network) SolveRange(n int) ([]Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("mva: population must be at least 1")
	}
	k := len(nw.stations)
	queue := make([]float64, k) // Q_i at previous population
	out := make([]Result, 0, n)
	for pop := 1; pop <= n; pop++ {
		// Residence time per station.
		resid := make([]float64, k)
		var total float64
		for i, s := range nw.stations {
			eff := s.Demand / float64(s.Servers)
			resid[i] = eff * (1 + queue[i])
			total += resid[i]
		}
		x := float64(pop) / (nw.think + total)
		res := Result{
			Throughput:   x,
			ResponseTime: total,
			Utilization:  make([]float64, k),
		}
		for i, s := range nw.stations {
			queue[i] = x * resid[i]
			u := x * s.Demand / float64(s.Servers)
			if u > 1 {
				u = 1
			}
			res.Utilization[i] = u
		}
		out = append(out, res)
	}
	return out, nil
}
