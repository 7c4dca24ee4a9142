// Package tpcapp sketches the TPC-App application-server benchmark the
// paper mentions as a candidate for "potentially rapid inclusion ... when
// a mature implementation is released" (§I). It demonstrates that the
// workload machinery (a bench.Profile, which implements sim.Model)
// accommodates a third benchmark with a different character: TPC-App is
// a web-services order-processing workload with a much higher write
// fraction than RUBiS and a short think time.
//
// The demand profile is synthetic (TPC-App was never released in a form
// the paper could run); the package exists to exercise the extensibility
// claim, and its numbers should not be read as a TPC-App reproduction.
package tpcapp

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/sim"
)

// ThinkTime is the service-oriented client's mean think time in seconds;
// TPC-App drives business sessions far faster than human browsing.
const ThinkTime = 2.0

// Per-class demand targets at the 3 GHz reference.
const (
	webDemand = 0.0008
	readApp   = 0.0120
	writeApp  = 0.0160
	readDB    = 0.0009
	writeDB   = 0.0022
)

type op struct {
	name      string
	write     bool
	appWeight float64
	dbWeight  float64
	weight    float64 // TPC-App operation mix weight
}

// The TPC-App web-service operations and their specified mix.
var ops = []op{
	{name: "NewOrder", write: true, appWeight: 1.3, dbWeight: 1.4, weight: 50},
	{name: "OrderStatus", appWeight: 0.8, dbWeight: 0.9, weight: 5},
	{name: "NewCustomer", write: true, appWeight: 1.0, dbWeight: 1.1, weight: 10},
	{name: "ChangePaymentMethod", write: true, appWeight: 0.7, dbWeight: 0.8, weight: 5},
	{name: "NewProducts", appWeight: 1.1, dbWeight: 1.2, weight: 7},
	{name: "ProductDetail", appWeight: 0.9, dbWeight: 1.0, weight: 13},
	{name: "ChangeItem", write: true, appWeight: 0.9, dbWeight: 1.0, weight: 5},
	{name: "Home", appWeight: 0.5, dbWeight: 0.4, weight: 5},
}

// New builds the TPC-App workload model with its specified operation mix.
func New() (*bench.Profile, error) {
	states := make([]sim.Interaction, len(ops))
	for i, o := range ops {
		states[i] = sim.Interaction{
			Name:         o.name,
			Write:        o.write,
			AppDemand:    o.appWeight,
			DBDemand:     o.dbWeight,
			WebDemand:    1,
			RequestBytes: 900,
			ReplyBytes:   2400,
		}
	}
	// TPC-App sessions draw operations i.i.d. from the mix: every row of
	// the transition matrix is the mix itself.
	row := make([]float64, len(ops))
	for j, o := range ops {
		row[j] = o.weight
	}
	rows := make([][]float64, len(ops))
	for i := range rows {
		rows[i] = row
	}
	m, err := bench.NewTransitionMatrix(states, rows)
	if err != nil {
		return nil, err
	}
	err = bench.Calibrate(m, bench.DemandTargets{
		Web: webDemand, ReadApp: readApp, WriteApp: writeApp,
		ReadDB: readDB, WriteDB: writeDB,
	})
	if err != nil {
		return nil, err
	}
	p, err := bench.NewProfile("tpcapp", m, ThinkTime)
	if err != nil {
		return nil, fmt.Errorf("tpcapp: %w", err)
	}
	return p, nil
}
