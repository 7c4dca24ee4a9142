package fluid

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The Go pass is the reference for the kernels: on random tables the
// kernel pass must match it bit for bit, and expRows must match
// math.Exp.

// requireAVX2FMA skips a test that calls the kernels on a CPU that cannot
// run them.
func requireAVX2FMA(t testing.TB) {
	t.Helper()
	if !haveAVX2FMA() {
		t.Skip("no AVX2, FMA or OS YMM state: the vector kernels cannot run here, so only the Go pass is tested")
	}
}

// requireKernels skips a test that compares expRows with math.Exp unless
// the kernels are selected, which needs math.Exp on its FMA path.
func requireKernels(t testing.TB) {
	t.Helper()
	requireAVX2FMA(t)
	if !useKernels {
		t.Skip("math.Exp takes its plain path (GODEBUG cpu.fma=off or cpu.avx=off?), which expRows does not follow: the kernels are off")
	}
}

// sameValue reports whether the kernel's and the Go pass's values agree:
// the same bits, or both NaN. Which NaN survives an operation on two
// NaNs depends on which is the first operand, and the Go compiler picks
// that freely for + and ×; stored results never hold NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkPass compares the kernel pass (pass, once requireKernels has
// passed) with the Go pass on m at xs, lane by lane, skipping idle lanes
// (x ≤ 0), whose values cdfs discards.
func checkPass(t *testing.T, m *mixture, xs [lanes]float64) {
	t.Helper()
	want := m.goPass(xs)
	got := m.pass(xs)
	for l, x := range xs {
		if x <= 0 {
			continue
		}
		if !sameValue(got[l], want[l]) {
			t.Fatalf("lane %d at x=%v over %d rates, %d branches, %d terms: kernel %v (%#x), Go %v (%#x)",
				l, x, len(m.rates), len(m.branches), len(m.terms),
				got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
		}
	}
}

// specialAlpha draws a hypoexponential coefficient: mostly of either sign
// and up to 1e24 in size (CDF sums far below 0 and above 1), sometimes
// NaN, ±Inf, ±0 or a denormal.
func specialAlpha(rng *rand.Rand) float64 {
	switch rng.IntN(16) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.IntN(2))
	case 2:
		return math.Copysign(0, float64(1-2*rng.IntN(2)))
	case 3:
		return math.Float64frombits(rng.Uint64N(1 << 52)) // denormal
	}
	return (2*rng.Float64() - 1) * math.Pow(10, 24*rng.Float64())
}

// randomTable fills m with a random mixture of nb branches over up to 48
// rates: branches of 0 to 20 terms, weights of either sign and ±0.
func randomTable(rng *rand.Rand, m *mixture, nb int) {
	nr := 1 + rng.IntN(48)
	m.rates = m.rates[:0]
	for k := 0; k < nr; k++ {
		m.rates = append(m.rates, math.Pow(10, -6+12*rng.Float64()))
	}
	m.exps = make([][lanes]float64, nr)
	m.terms, m.branches = m.terms[:0], m.branches[:0]
	for b := 0; b < nb; b++ {
		lo := len(m.terms)
		for n := rng.IntN(21); n > 0; n-- {
			m.terms = append(m.terms, term{alpha: specialAlpha(rng), rate: rng.IntN(nr)})
		}
		w := rng.Float64()
		switch rng.IntN(10) {
		case 0:
			w = -w
		case 1:
			w = math.Copysign(0, -1)
		}
		m.branches = append(m.branches, branch{weight: w, lo: lo, hi: len(m.terms)})
	}
}

// randomXs draws four points, idling some lanes at x = 0, −0 or x < 0.
func randomXs(rng *rand.Rand) [lanes]float64 {
	var xs [lanes]float64
	for l := range xs {
		switch rng.IntN(8) {
		case 0:
			xs[l] = 0
		case 1:
			xs[l] = math.Copysign(0, -1)
		case 2:
			xs[l] = -rng.Float64()
		default:
			xs[l] = math.Pow(10, -8+12*rng.Float64())
		}
	}
	return xs
}

// TestKernelPassMatchesGoPass compares the kernel pass with the Go pass
// on random tables of 0, 1, an odd number and many branches, with special
// coefficients and idle lanes, and requires clamped sums on both sides of
// [0, 1] and NaN sums among them.
func TestKernelPassMatchesGoPass(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewPCG(17, 19))
	var m mixture
	var low, high, nan, mid int
	for trial := 0; trial < 4000; trial++ {
		nb := []int{0, 1, 7, 1 + rng.IntN(64)}[trial%4]
		randomTable(rng, &m, nb)
		xs := randomXs(rng)
		checkPass(t, &m, xs)
		// Coverage: what the clamp saw, from the Go pass's exponentials.
		for _, b := range m.branches {
			for l, x := range xs {
				if x <= 0 {
					continue
				}
				g := 1.0
				for _, tm := range m.terms[b.lo:b.hi] {
					g -= tm.alpha * m.exps[tm.rate][l]
				}
				switch {
				case math.IsNaN(g):
					nan++
				case g < 0:
					low++
				case g > 1:
					high++
				default:
					mid++
				}
			}
		}
	}
	if low < 1000 || high < 1000 || nan < 1000 || mid < 1000 {
		t.Fatalf("coverage: branch sums %d below 0, %d above 1, %d NaN, %d within", low, high, nan, mid)
	}
}

// TestKernelPassOnSolverMixtures compares the kernel pass with the Go pass
// on mixtures the solver builds, at the bisection's points.
func TestKernelPassOnSolverMixtures(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewPCG(23, 29))
	var m mixture
	for trial := 0; trial < 1000; trial++ {
		classes, stages, probs := randomWindow(rng, 1)
		m.build(classes, stages, probs)
		hi := 1e-6
		for _, b := range m.branches {
			hi = math.Max(hi, 4*b.expMean)
		}
		for i := 0; i < 8; i++ {
			checkPass(t, &m, [lanes]float64{hi * rng.Float64(), hi * math.Pow(2, float64(rng.IntN(200))), 0, rng.Float64() * 1e-6})
		}
	}
}

// expArgs sets each rate to −a for an argument a from draw, so that lane
// x of expRows computes math.Exp(a·x).
func expArgs(rates []float64, draw func() float64) {
	for k := range rates {
		rates[k] = -draw()
	}
}

// TestExpRowsMatchesExp compares expRows with math.Exp bit for bit over
// 10⁸ arguments (10⁶ with -short): random bit patterns (NaN, ±Inf and
// every magnitude), [−800, 800], archExp's denormal window
// [−745.14, −708.39], deep underflow, ±0 and tiny arguments, and the
// range a solver window's bisection visits.
func TestExpRowsMatchesExp(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewPCG(31, 37))
	sources := []func() float64{
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 { return -800 + 1600*rng.Float64() },
		func() float64 { return -745.14 + (745.14-708.39)*rng.Float64() },
		func() float64 { return -745.14 * math.Pow(10, 300*rng.Float64()) },
		func() float64 { return math.Copysign(math.Pow(10, -330+330*rng.Float64()), 2*rng.Float64()-1) },
		func() float64 { return -60 * rng.Float64() },
	}
	total := int(1e8)
	if testing.Short() {
		total = 1e6
	}
	const rows = 1024
	rates := make([]float64, rows)
	exps := make([][lanes]float64, rows)
	var done int
	for batch := 0; done < total; batch++ {
		expArgs(rates, sources[batch%len(sources)])
		s := 0.5 + rng.Float64()
		xs := [lanes]float64{1, -1, s, -s}
		if batch == 0 {
			rates[0], rates[1], rates[2] = 0, math.Inf(1), math.NaN()
			rates[3], rates[4] = -7.09782712893384e+02, -math.Nextafter(7.09782712893384e+02, 1000)
		}
		expRows(exps, rates, &xs)
		for k, r := range rates {
			for l, x := range xs {
				got, want := exps[k][l], math.Exp(-r*x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("exp(%v): expRows %v (%#x), math.Exp %v (%#x)",
						-r*x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		done += rows * lanes
	}
}

// archExp's constants ($GOROOT/src/math/exp_amd64.s).
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor are archExp's Taylor coefficients, highest order first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// emulatedExp computes math.Exp(x) as archExp does on amd64: down its
// FMA path (math.FMA for each fused step) or its plain path (each
// float64 operation rounded on its own).
func emulatedExp(x float64, fma bool) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	e := int32(math.MinInt32) // CVTSD2SL's result out of range
	if t := math.RoundToEven(expLog2e * x); t >= math.MinInt32 && t <= math.MaxInt32 {
		e = int32(t)
	}
	fe := float64(e)
	var r float64
	if fma {
		r = math.FMA(-fe, expLn2U, x)
		r = math.FMA(-fe, expLn2L, r)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = math.FMA(r, p, c)
		}
		r *= p
		for i := 0; i < 3; i++ {
			r *= r + 2
		}
		r = math.FMA(r+2, r, 1)
	} else {
		r = x - float64(fe*expLn2U)
		r -= float64(fe * expLn2L)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = float64(p*r) + c
		}
		r *= p
		for i := 0; i < 4; i++ {
			r *= r + 2
		}
		r++
	}
	switch k := int64(e) + 0x3ff; {
	case k < -52:
		return 0
	case k <= 0:
		r *= math.Float64frombits(uint64(k+0x3fe) << 52)
		return r * math.Float64frombits(1<<52)
	case k >= 0x7ff:
		return math.Inf(1)
	default:
		return r * math.Float64frombits(uint64(k)<<52)
	}
}

// TestSelfCheckSplitsExpPaths pins the start-up check's points: on each,
// archExp's FMA and plain paths (emulated in Go) differ, so the check
// passes only where math.Exp takes the FMA path, the one expRows
// follows. Where the kernels can run, expRows must match the FMA
// emulation on random arguments whichever path math.Exp takes, and
// math.Exp must match one emulation throughout.
func TestSelfCheckSplitsExpPaths(t *testing.T) {
	for _, x := range checkXs {
		a := -x
		fused, plain := emulatedExp(a, true), emulatedExp(a, false)
		if fused == plain {
			t.Fatalf("check point exp(%v): both paths give %v", a, fused)
		}
		switch got := math.Exp(a); {
		case got == fused:
		case got == plain && useKernels:
			t.Fatalf("exp(%v): math.Exp takes the plain path, yet the kernels are selected", a)
		case got != plain:
			t.Fatalf("exp(%v): math.Exp %v, FMA path %v, plain path %v", a, got, fused, plain)
		}
	}
	path := emulatedExp(-0.2, true) == math.Exp(-0.2)
	if haveAVX2FMA() && useKernels != path {
		t.Fatalf("kernels selected: %v; math.Exp on its FMA path: %v", useKernels, path)
	}

	rng := rand.New(rand.NewPCG(41, 43))
	rates := make([]float64, 256)
	exps := make([][lanes]float64, len(rates))
	for batch := 0; batch < 200; batch++ {
		expArgs(rates, func() float64 { return -800 + 1600*rng.Float64() })
		xs := [lanes]float64{1, -1, 0.5, 2}
		if haveAVX2FMA() {
			expRows(exps, rates, &xs)
		}
		for k, r := range rates {
			for l, x := range xs {
				a := -r * x
				fused := emulatedExp(a, true)
				if got := math.Exp(a); got != fused && got != emulatedExp(a, false) {
					t.Fatalf("exp(%v): math.Exp %v matches neither emulated path", a, got)
				}
				if got := exps[k][l]; haveAVX2FMA() && math.Float64bits(got) != math.Float64bits(fused) {
					t.Fatalf("exp(%v): expRows %v, emulated FMA path %v", a, got, fused)
				}
			}
		}
	}
}

// FuzzMixturePass compares the kernel pass with the Go pass on tables
// decoded from the input: each 9-byte record is a term (a coefficient's
// bits and a rate index) or, when its index byte is 0xff, ends a branch
// and gives its weight.
func FuzzMixturePass(f *testing.F) {
	f.Add(1.0, 0.5, 0.0, -1.0, []byte{})
	f.Add(0.3, 2.0, 7.0, 1e-3, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0xff, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0})
	f.Add(1e3, 1e-9, math.Copysign(0, -1), 40.0, []byte{1, 2, 3, 4, 5, 6, 0xf8, 0x7f, 3, 9, 9, 9, 9, 9, 9, 0xf0, 0xff, 1})
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3 float64, table []byte) {
		requireKernels(t)
		m := mixture{rates: []float64{1e-3, 0.5, 1, 7, 250, 1e6}}
		m.exps = make([][lanes]float64, len(m.rates))
		lo := 0
		for ; len(table) >= 9; table = table[9:] {
			v := math.Float64frombits(uint64(table[0]) | uint64(table[1])<<8 | uint64(table[2])<<16 |
				uint64(table[3])<<24 | uint64(table[4])<<32 | uint64(table[5])<<40 | uint64(table[6])<<48 | uint64(table[7])<<56)
			if table[8] == 0xff {
				m.branches = append(m.branches, branch{weight: v, lo: lo, hi: len(m.terms)})
				lo = len(m.terms)
				continue
			}
			m.terms = append(m.terms, term{alpha: v, rate: int(table[8]) % len(m.rates)})
		}
		checkPass(t, &m, [lanes]float64{x0, x1, x2, x3})
	})
}
