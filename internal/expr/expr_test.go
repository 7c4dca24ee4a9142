package expr

import (
	"math"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return p
}

func TestEvalBasics(t *testing.T) {
	env := &Env{T: 150, X: 200, P50: 0.010, P90: 0.080, P99: 0.450}
	env.Util[TierDB][ResDisk] = 0.85
	env.Util[TierApp][ResCPU] = 0.40

	cases := []struct {
		src  string
		want float64
		kind Kind
	}{
		{"1 + 2*3", 7, Float},
		{"(1 + 2) * 3", 9, Float},
		{"100 + 900*ramp(t/300s)", 550, Float},
		{"2s + 500ms", 2.5, Duration},
		{"1s / 250ms", 4, Float},
		{"-3 + 1", -2, Float},
		{"min(3, 7)", 3, Float},
		{"max(3, 7)", 7, Float},
		{"clamp(12, 0, 10)", 10, Float},
		{"clamp(-2, 0, 10)", 0, Float},
		{"sin(0)", 0, Float},
		{"ramp(2)", 1, Float},
		{"ramp(-1)", 0, Float},
		{"x()", 200, Float},
		{"p99(rt)", 0.450, Duration},
		{"p50(rt) * 2", 0.020, Duration},
		{"util(db, disk)", 0.85, Float},
		{"util(web, cpu)", 0, Float},
		{"t", 150, Duration},
		{"p99(rt) < 500ms", 1, Bool},
		{"p99(rt) < 400ms", 0, Bool},
		{"util(db, disk) < 0.9 && util(app, cpu) < 0.5", 1, Bool},
		{"util(db, disk) > 0.9 || util(app, cpu) < 0.5", 1, Bool},
		{"!(x() > 100)", 0, Bool},
		{"t >= 150s && t <= 150s", 1, Bool},
		{"x() != 200", 0, Bool},
		{"p90(rt) == 80ms", 1, Bool},
	}
	for _, c := range cases {
		p := mustCompile(t, c.src)
		if p.Kind() != c.kind {
			t.Errorf("Compile(%q).Kind() = %s, want %s", c.src, p.Kind(), c.kind)
		}
		if got := p.Eval(env); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// 1/0 inside the unevaluated arm must not poison the result: the
	// evaluator skips the right side entirely.
	env := &Env{}
	if got := mustCompile(t, "1 < 2 || 1/0 > 0").Eval(env); got != 1 {
		t.Fatalf("|| did not short-circuit: got %v", got)
	}
	if got := mustCompile(t, "2 < 1 && 1/0 > 0").Eval(env); got != 0 {
		t.Fatalf("&& did not short-circuit: got %v", got)
	}
}

func TestDurationLiteralsMatchTBLRounding(t *testing.T) {
	// 9ms must be the correctly-rounded double nearest 0.009 — computed
	// by division, never by multiplying with an inexact 1e-3.
	p := mustCompile(t, "9ms")
	if got, want := p.Eval(&Env{}), 9.0/1e3; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("9ms = %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantPos string // "line:col" prefix the error must carry
		wantSub string
	}{
		{"", "1:1", "unexpected end"},
		{"1 +", "1:4", "unexpected end"},
		{"(1 + 2", "1:7", "expected ')'"},
		{"1 ? 2", "1:3", "unexpected character"},
		{"min(1, 2", "1:9", "expected ')'"},
		{"1 2", "1:3", "after expression"},
		{"1..5", "1:1", "malformed number"},
		{"5kg", "1:1", "unknown unit"},
		{"&& 1", "1:1", "unexpected"},
		{"! < 2", "1:3", "unexpected"},
		{"\n  1 +", "2:6", "unexpected end"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.src)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "expr: "+c.wantPos+":") {
			t.Errorf("Parse(%q) error %q, want position %s", c.src, msg, c.wantPos)
		}
		if !strings.Contains(msg, c.wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", c.src, msg, c.wantSub)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantPos string
		wantSub string
	}{
		{"p99(rt) < 0.5", "1:9", "matching"},
		{"t + 1", "1:3", "matching"},
		{"foo", "1:1", "unknown variable"},
		{"foo()", "1:1", "unknown function"},
		{"ramp(t)", "1:6", "divide durations"},
		{"util(cache, cpu)", "1:6", "unknown tier"},
		{"util(db, ram)", "1:10", "unknown resource"},
		{"p99(latency)", "1:5", "p99(rt)"},
		{"x(1)", "1:1", "no arguments"},
		{"min(1s, 2)", "1:1", "matching"},
		{"!t", "1:1", "needs a bool"},
		{"-(1 < 2)", "1:1", "needs a float or duration"},
		{"(1 < 2) + 1", "1:9", "matching"},
		{"1 && 2", "1:3", "bool operands"},
		{"clamp(1, 2s, 3)", "1:1", "matching"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error", c.src)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "expr: "+c.wantPos+":") {
			t.Errorf("Compile(%q) error %q, want position %s", c.src, msg, c.wantPos)
		}
		if !strings.Contains(msg, c.wantSub) {
			t.Errorf("Compile(%q) error %q, want substring %q", c.src, msg, c.wantSub)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	deep := strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200)
	if _, err := Parse(deep); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("deep nesting not rejected: %v", err)
	}
	// Just inside the limit still parses (each paren layer costs a few
	// recursion levels: binary → unary → primary).
	ok := strings.Repeat("(", 15) + "1" + strings.Repeat(")", 15)
	if _, err := Parse(ok); err != nil {
		t.Fatalf("moderate nesting rejected: %v", err)
	}
}

func TestCanonicalPrinting(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1+2*3", "1 + 2*3"},
		{"(1+2)*3", "(1 + 2)*3"},
		{"1 - (2 - 3)", "1 - (2 - 3)"},
		{"1 - 2 - 3", "1 - 2 - 3"},
		{"-(1+2)", "-(1 + 2)"},
		{"--1", "--1"},
		{"!(1 < 2)", "!(1 < 2)"},
		{"(((x())))", "x()"},
		{"min( 1 , 2 )", "min(1, 2)"},
		{"1<2 && 3<4 || 5<6", "1 < 2 && 3 < 4 || 5 < 6"},
		{"1<2 && (3<4 || 5<6)", "1 < 2 && (3 < 4 || 5 < 6)"},
		{"100+900*ramp(t/300s)", "100 + 900*ramp(t/300s)"},
		{"500ms", "500ms"},
		{"0.5s", "0.5s"},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got := String(e)
		if got != c.want {
			t.Errorf("String(Parse(%q)) = %q, want %q", c.src, got, c.want)
		}
		// The canonical form is a fixpoint.
		e2, err := Parse(got)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", got, err)
		}
		if got2 := String(e2); got2 != got {
			t.Errorf("canonical form not a fixpoint: %q -> %q", got, got2)
		}
	}
}

func TestSourceIsCanonical(t *testing.T) {
	p := mustCompile(t, "  100+900 * ramp( t / 300s )")
	if got, want := p.Source(), "100 + 900*ramp(t/300s)"; got != want {
		t.Fatalf("Source() = %q, want %q", got, want)
	}
}
