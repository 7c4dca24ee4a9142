package fluid

import "math"

// useKernels selects, once per process, how a mixture's CDF passes run:
// through the AVX2 kernels in cdf_amd64.s, or through the Go pass. The
// kernels need AVX2, FMA and the OS's YMM state (CPUID and XGETBV, as
// internal/cpu reads them), and expRows reproduces math.Exp's FMA path
// only, so they also need math.Exp to take that path: a start-up check
// compares the two on arguments where the FMA and plain paths round
// differently. GODEBUG=cpu.fma=off (or cpu.avx=off) sends math.Exp down
// its plain path, so the check fails and the Go pass runs.
var useKernels = haveAVX2FMA() && expRowsMatchesExp()

// checkXs are the self-check's points: at rate 1 they make the arguments
// −0.2, −1.6, −12.1 and −101.4, on each of which math.Exp's FMA and plain
// paths return different bits.
var checkXs = [lanes]float64{0.2, 1.6, 12.1, 101.4}

// haveAVX2FMA reports whether the CPU and OS support the kernels'
// instructions.
func haveAVX2FMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 1<<1 | 1<<2
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// expRowsMatchesExp reports whether expRows returns math.Exp's bits at
// the check points.
func expRowsMatchesExp() bool {
	var row [1][lanes]float64
	xs := checkXs
	expRows(row[:], []float64{1}, &xs)
	for l, x := range checkXs {
		if math.Float64bits(row[0][l]) != math.Float64bits(math.Exp(-x)) {
			return false
		}
	}
	return true
}

// pass runs one CDF pass (see goPass) through the kernels where they
// are selected. A lane at x ≤ 0 gets its exponentials too, and its
// result is discarded.
func (m *mixture) pass(xs [lanes]float64) [lanes]float64 {
	if !useKernels {
		return m.goPass(xs)
	}
	var f [lanes]float64
	expRows(m.exps, m.rates, &xs)
	walkTerms(&f, m.exps, m.terms, m.branches)
	return f
}

// expRows sets exps[k][l] to math.Exp(-rates[k] * xs[l]) for every rate,
// bit for bit as math.Exp's FMA path computes it. exps must hold a row
// per rate.
//
//go:noescape
func expRows(exps [][lanes]float64, rates []float64, xs *[lanes]float64)

// walkTerms sets f to goPass's term walk over exps: per lane, the sum
// over branches of weight·clamp01(1 − Σ α·exps[rate]), in the Go pass's
// order of operations.
//
//go:noescape
func walkTerms(f *[lanes]float64, exps [][lanes]float64, terms []term, branches []branch)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
