package expr

import "testing"

// benchSink keeps the compiler from eliding the eval loop.
var benchSink float64

// BenchmarkExprEval measures the steady-state cost of the trial hot
// path: one compiled program evaluated per measurement window. CI gates
// this benchmark at 0 allocs/op — the whole point of pre-bound slots
// and a tree walk that keeps its values on the goroutine stack.
func BenchmarkExprEval(b *testing.B) {
	prog, err := Compile("100 + 900*ramp(t/300s) + min(x(), 1000)*clamp(util(db, disk), 0, 1)")
	if err != nil {
		b.Fatal(err)
	}
	env := Env{T: 150, X: 412}
	env.Util[TierDB][ResDisk] = 0.82
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.T = float64(i % 300)
		benchSink = prog.Eval(&env)
	}
}

// BenchmarkExprEvalSLO is the boolean predicate shape: an SLO assert
// with short-circuit evaluation.
func BenchmarkExprEvalSLO(b *testing.B) {
	prog, err := Compile("p99(rt) < 500ms && util(db, disk) < 0.9 && x() > 50")
	if err != nil {
		b.Fatal(err)
	}
	env := Env{T: 150, X: 412, P99: 0.31}
	env.Util[TierDB][ResDisk] = 0.82
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = b2f(prog.EvalBool(&env))
	}
}

// BenchmarkExprCompile measures the compile-once cost paid per trial.
func BenchmarkExprCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Compile("100 + 900*ramp(t/300s)")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = float64(len(p.Source()))
	}
}

// TestEvalZeroAllocs pins the allocation-free property as a plain test
// so it fails fast in every `go test` run, not only under the CI
// benchmark gate.
func TestEvalZeroAllocs(t *testing.T) {
	prog, err := Compile("100 + 900*ramp(t/300s) + min(x(), 1000)*clamp(util(db, disk), 0, 1)")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{T: 150, X: 412}
	allocs := testing.AllocsPerRun(1000, func() {
		benchSink = prog.Eval(&env)
	})
	if allocs != 0 {
		t.Fatalf("Eval allocates %v allocs/op, want 0", allocs)
	}
}
