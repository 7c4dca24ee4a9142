package sim

import (
	"math"
	"testing"
)

// TestStationDegradationScalesService checks the fault hook the kernel
// consumes during slowdown/stall windows: service time divides by the
// degradation factor, and restoring to 1 returns to rated speed.
func TestStationDegradationScalesService(t *testing.T) {
	serve := func(setup func(*Station)) float64 {
		k := NewKernel(1)
		s := detStation(k, 1, 1.0)
		if setup != nil {
			setup(s)
		}
		var svc float64
		s.Submit(1.0, func(_ bool, _, service float64) { svc = service })
		k.Run(100)
		return svc
	}
	if svc := serve(nil); math.Abs(svc-1.0) > 1e-12 {
		t.Fatalf("baseline service = %g, want 1.0", svc)
	}
	if svc := serve(func(s *Station) { s.SetDegradation(0.5) }); math.Abs(svc-2.0) > 1e-12 {
		t.Fatalf("degraded service = %g, want 2.0", svc)
	}
	if svc := serve(func(s *Station) {
		s.SetDegradation(0.5)
		s.SetDegradation(1)
	}); math.Abs(svc-1.0) > 1e-12 {
		t.Fatalf("restored service = %g, want 1.0", svc)
	}
}

// TestStationDegradationClamped pins the guard rails: factors at or below
// zero clamp to a tiny positive speed (a stall, not a divide-by-zero), and
// factors above one never speed a station up.
func TestStationDegradationClamped(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0)
	var svc float64
	s.SetDegradation(0)
	s.Submit(0.001, func(_ bool, _, service float64) { svc = service })
	k.Run(10)
	if math.IsInf(svc, 0) || math.IsNaN(svc) || svc <= 0 {
		t.Fatalf("zero degradation produced service %g", svc)
	}
	k2 := NewKernel(1)
	s2 := detStation(k2, 1, 1.0)
	s2.SetDegradation(5)
	s2.Submit(1.0, func(_ bool, _, service float64) { svc = service })
	k2.Run(10)
	if svc < 1.0 {
		t.Fatalf("degradation above 1 sped the station up: service %g", svc)
	}
}

// TestDriverErrorRateInjection checks the error-burst hook: with a rate
// armed, the driver fails a matching share of issued requests before they
// reach the tiers, counts them as both errors and injected errors, and
// stops once the rate returns to zero.
func TestDriverErrorRateInjection(t *testing.T) {
	k := NewKernel(11)
	app := buildApp(k, 1, 2, 1)
	model := fixedModel{
		it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.005, DBDemand: 0.002},
		think: 0.5,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 20, RampUp: 1}, 3)
	d.Start()
	k.Run(10)

	d.SetErrorRate(0.4)
	d.BeginMeasurement()
	k.Run(k.Now() + 60)
	d.EndMeasurement()
	injected := d.InjectedErrors()
	if injected == 0 {
		t.Fatal("error rate 0.4 injected nothing")
	}
	if errs := d.Errors(); errs < injected {
		t.Fatalf("injected errors (%d) not counted in errors (%d)", injected, errs)
	}
	total := injected + int64(d.ResponseTimes().Count())
	frac := float64(injected) / float64(total)
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("injected fraction = %.2f, want ≈0.4", frac)
	}

	// Clearing the rate stops injection; the next window is clean.
	d.SetErrorRate(0)
	d.BeginMeasurement()
	k.Run(k.Now() + 30)
	d.EndMeasurement()
	if d.InjectedErrors() != 0 || d.Errors() != 0 {
		t.Fatalf("errors after clearing the rate: injected=%d errors=%d",
			d.InjectedErrors(), d.Errors())
	}
}

// TestDriverErrorRateClamped checks SetErrorRate's input guard: out-of-
// range rates clamp to [0,1] rather than corrupting the draw.
func TestDriverErrorRateClamped(t *testing.T) {
	k := NewKernel(2)
	app := buildApp(k, 1, 1, 1)
	model := fixedModel{
		it:    Interaction{Name: "ix", WebDemand: 0.001, AppDemand: 0.005, DBDemand: 0.002},
		think: 0.5,
	}
	d := NewDriver(k, app, model, DriverConfig{Users: 5, RampUp: 1}, 9)
	d.SetErrorRate(7) // clamps to 1: every request fails
	d.Start()
	d.BeginMeasurement()
	k.Run(20)
	d.EndMeasurement()
	if d.ResponseTimes().Count() != 0 {
		t.Fatalf("rate clamped to 1 still completed %d requests", d.ResponseTimes().Count())
	}
	if d.InjectedErrors() == 0 {
		t.Fatal("rate clamped to 1 injected nothing")
	}
	d.SetErrorRate(-3) // clamps to 0
	d.BeginMeasurement()
	k.Run(k.Now() + 20)
	d.EndMeasurement()
	if d.InjectedErrors() != 0 {
		t.Fatalf("negative rate injected %d errors", d.InjectedErrors())
	}
}
