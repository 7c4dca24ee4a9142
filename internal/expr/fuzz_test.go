package expr

import "testing"

// FuzzParseExpr throws arbitrary bytes at the full front end and checks
// the invariants that hold for *any* input: the parser never panics,
// anything it accepts re-parses from its canonical printing (print is a
// parse fixpoint), and anything that type-checks compiles and evaluates
// without panicking, bit-identical to the reference interpreter.
func FuzzParseExpr(f *testing.F) {
	seeds := []string{
		"100 + 900*ramp(t/300s)",
		"p99(rt) < 500ms && util(db, disk) < 0.9",
		"when util(app, cpu) > 0.8",
		"min(x(), 1000)*clamp(util(db, disk), 0, 1)",
		"sin(t/60s)*50 + 100",
		"!(p50(rt) > 10ms) || x() == 0",
		"1s / 250ms",
		"((((((1))))))",
		"-1.5ms",
		"1..2",
		"9999999999999999999999999999999999999999",
		"util(web,net)>util(app,net)",
		"t\n+\n1s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := Parse(src)
		if err != nil {
			return
		}
		canon := String(ast)
		re, err := Parse(canon)
		if err != nil {
			t.Fatalf("accepted %q but canonical form %q does not re-parse: %v", src, canon, err)
		}
		if got := String(re); got != canon {
			t.Fatalf("print not a fixpoint: %q -> %q -> %q", src, canon, got)
		}
		kind, err := Check(ast)
		if err != nil {
			return
		}
		prog, err := CompileAST(ast)
		if err != nil {
			t.Fatalf("checked %q (kind %s) but compile failed: %v", canon, kind, err)
		}
		if prog.Kind() != kind {
			t.Fatalf("Check says %s, Compile says %s for %q", kind, prog.Kind(), canon)
		}
		for _, env := range genEnvs() {
			env := env
			got := prog.Eval(&env)
			ref := evalRef(ast, &env)
			if !sameBits(got, ref) {
				t.Fatalf("Eval diverges from interpreter on fuzzed %q: eval=%v ref=%v", canon, got, ref)
			}
			if kind == Bool && got != 0 && got != 1 {
				t.Fatalf("bool expression %q evaluated to %v, want 0 or 1", canon, got)
			}
		}
	})
}
