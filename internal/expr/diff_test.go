package expr

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits is the differential equality: bit-identical, except that all
// NaNs compare equal. NaN payloads (including the sign bit) are
// unspecified by IEEE 754 and the Go compiler may commute float
// operands, so payload identity is not a property either evaluator can
// promise; every numeric (non-NaN) result must still match exactly.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// genPopulation builds the shared expression population: ~1.2k
// well-typed expressions split across the three result types, several
// seeds, and nesting depths from leaves to the parser's comfort zone.
func genPopulation(t *testing.T) []Expr {
	t.Helper()
	var pop []Expr
	for _, seed := range []int64{1, 7, 42, 20260808} {
		g := &gen{r: rand.New(rand.NewSource(seed))}
		for _, kind := range []Kind{Float, Duration, Bool} {
			for i := 0; i < 100; i++ {
				pop = append(pop, g.expr(kind, 1+i%5))
			}
		}
	}
	return pop
}

// TestEvalMatchesInterpreter is the differential battery: every
// generated expression round-trips through the canonical printer,
// compiles, and must evaluate bit-identically through Program.Eval and
// the reference interpreter under every environment in the pool.
func TestEvalMatchesInterpreter(t *testing.T) {
	envs := genEnvs()
	for _, ast := range genPopulation(t) {
		src := String(ast)
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("generated expression does not re-parse: %q: %v", src, err)
		}
		if got := String(parsed); got != src {
			t.Fatalf("printer is not a fixpoint: %q reprints as %q", src, got)
		}
		prog, err := CompileAST(parsed)
		if err != nil {
			t.Fatalf("generated expression does not compile: %q: %v", src, err)
		}
		for i := range envs {
			got := prog.Eval(&envs[i])
			ref := evalRef(parsed, &envs[i])
			if !sameBits(got, ref) {
				t.Fatalf("Eval diverges from interpreter on %q (env %d): eval=%v (%#x) ref=%v (%#x)",
					src, i, got, math.Float64bits(got), ref, math.Float64bits(ref))
			}
		}
	}
}

// TestWellTypedKindAgrees checks the generator and checker agree on
// every expression's type — a meta-check that the battery actually
// exercises all three types, not a degenerate subset.
func TestWellTypedKindAgrees(t *testing.T) {
	g := &gen{r: rand.New(rand.NewSource(3))}
	counts := map[Kind]int{}
	for _, kind := range []Kind{Float, Duration, Bool} {
		for i := 0; i < 150; i++ {
			ast := g.expr(kind, 1+i%5)
			got, err := Check(ast)
			if err != nil {
				t.Fatalf("generated %s expression fails check: %q: %v", kind, String(ast), err)
			}
			if got != kind {
				t.Fatalf("generated %s expression checks as %s: %q", kind, got, String(ast))
			}
			counts[got]++
		}
	}
	for _, kind := range []Kind{Float, Duration, Bool} {
		if counts[kind] == 0 {
			t.Fatalf("battery generated no %s expressions", kind)
		}
	}
}
