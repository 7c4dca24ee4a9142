package mva_test

import (
	"fmt"

	"elba/internal/mva"
)

// A closed network with a 7 s think time and a 30 ms application tier:
// at 100 users the app tier, the slowest station, is 43% busy. The
// network saturates near (Z+D)/D ≈ 235 users, the paper's
// ≈250-users-per-app-server rule of thumb.
func ExampleNetwork_Solve() {
	nw, err := mva.NewNetwork(7.0, []mva.Station{
		{Name: "web", Demand: 0.0015, Servers: 1},
		{Name: "app", Demand: 0.0300, Servers: 1},
		{Name: "db", Demand: 0.0045, Servers: 1},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r, _ := nw.Solve(100)
	fmt.Printf("X(100) = %.1f req/s\n", r.Throughput)
	fmt.Printf("app utilization = %.0f%%\n", r.Utilization[1]*100)
	// Output:
	// X(100) = 14.2 req/s
	// app utilization = 43%
}
