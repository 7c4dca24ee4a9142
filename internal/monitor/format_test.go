package monitor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"elba/internal/sim"
)

// TestAppendFixedMatchesSprintf checks the integer formatter against
// fmt's %*.*f at every width and precision the monitor uses and more, on
// typical sample values, raw bit patterns (subnormals, NaN, ±Inf, huge
// magnitudes), and hand-picked rounding edges.
func TestAppendFixedMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	widths := []int{6, 8, 10, 12}
	var b []byte
	check := func(v float64, w, p int) {
		t.Helper()
		b = appendFixed(b[:0], v, w, p)
		if want := fmt.Sprintf("%*.*f", w, p, v); string(b) != want {
			t.Fatalf("appendFixed(%v [%#x], %d, %d) = %q, want %q", v, math.Float64bits(v), w, p, b, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), -0.001, -0.004, -0.0049, -1e-300,
		0.125, 0.375, 2.5, 0.5, 1.5, 0.05, 0.005, 0.0005, 0.25,
		9.995, 99.995, 99.9999, 9.9999, 999.9995, 0.9999,
		100, 1e15, 1 << 52, 1<<53 - 1, 1 << 53, 1e17, 1e19, 1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 5e-324, 1e-17,
		math.Ldexp(1, -64), math.Ldexp(1, -65), math.Ldexp(1.5, -64), math.Ldexp(1.5, -65),
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range edges {
		for p := 0; p <= 6; p++ {
			for _, w := range widths {
				check(v, w, p)
				check(-v, w, p)
			}
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000 // the race-detector short job; no concurrency here
	}
	for i := 0; i < n; i++ {
		var v float64
		if i%2 == 0 {
			v = 100 * rng.Float64()
		} else {
			v = math.Float64frombits(rng.Uint64())
		}
		check(v, widths[i/2%len(widths)], i/8%4)
	}
}

// BenchmarkMonitorSample measures one sampling tick over a 1-4-2
// deployment (seven hosts) with the cpu, memory, network and disk
// families, each host exposing every counter the families read.
func BenchmarkMonitorSample(b *testing.B) {
	k := sim.NewKernel(1)
	rate := func(r float64) func() float64 { return func() float64 { return k.Now() * r } }
	var probes []Probe
	for i, role := range []string{"APACHE1", "TOMCAT1", "TOMCAT2", "TOMCAT3", "TOMCAT4", "MYSQL1", "MYSQL2"} {
		util := 0.1 * float64(i+1)
		probes = append(probes, Probe{
			Host: fmt.Sprintf("node%d", i+1), Role: role,
			TotalMemMB: 2048, BaseMemMB: 300, MemPerJobMB: 1.5,
			CPUBusyFn: rate(util), CPUServers: 1,
			JobsFn:     func() float64 { return 40 * util },
			NetBytes:   rate(3.7e6 * util),
			DiskOps:    rate(120 * util),
			DiskBusyFn: rate(util / 3),
			NetBusyFn:  rate(util / 7),
		})
	}
	const interval = 1.0
	m, err := New(k, Config{IntervalSec: interval, Metrics: []string{"cpu", "memory", "network", "disk"}}, probes)
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(float64(i+1) * interval)
	}
}
