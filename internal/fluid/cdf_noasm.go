//go:build !amd64

package fluid

// pass runs one CDF pass. Only amd64 has vector kernels; elsewhere the
// Go pass is the only path.
func (m *mixture) pass(xs [lanes]float64) [lanes]float64 { return m.goPass(xs) }
