package metrics

// Observer receives a stream of observations. Summary, Sample and TDigest
// all implement it, so measurement producers (the simulated client
// driver, the result-log folder) can be pointed at any statistic without
// knowing which one is attached.
type Observer interface {
	Observe(x float64)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(float64)

// Observe calls f(x).
func (f ObserverFunc) Observe(x float64) { f(x) }

// MultiObserver fans each observation out to every attached observer, in
// order. Nil entries are skipped so call sites can compose optional hooks
// without filtering first.
type MultiObserver []Observer

// Observe forwards x to every non-nil observer.
func (m MultiObserver) Observe(x float64) {
	for _, o := range m {
		if o != nil {
			o.Observe(x)
		}
	}
}
