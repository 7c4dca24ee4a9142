package expr

import "math"

// Env is the observation environment an expression evaluates against:
// the clock plus the most recent measurement window's statistics. It is
// a flat struct of pre-bound slots — the checker binds every variable
// and observation builtin to a direct field read, so evaluation does no
// map lookups and boxes no interfaces.
type Env struct {
	// T is the clock: protocol seconds since the run period began
	// (time-scale–invariant, like every other TBL time).
	T float64
	// X is the window's throughput in successful requests per second.
	X float64
	// P50, P90, P99 are the window's response-time quantiles in seconds.
	P50, P90, P99 float64
	// Util is the window's mean busy fraction (0–1) per tier and
	// resource, indexed by the TierWeb/ResCPU constant families.
	Util [NumTiers][NumResources]float64
	// Replicas is the current server count per tier, indexed by the
	// TierWeb constant family. Policy predicates read it to bound
	// scale decisions (replicas(app) < 12).
	Replicas [NumTiers]float64
}

// Program is a compiled expression: the checked tree, which evaluates
// itself, and the static metadata the host needs (result type,
// canonical source).
type Program struct {
	root Expr
	kind Kind
	src  string
}

// Kind reports the program's result type.
func (p *Program) Kind() Kind { return p.kind }

// Source reports the canonical rendering of the compiled expression.
func (p *Program) Source() string { return p.src }

// Compile runs the full front end on one expression source: parse and
// type-check. The result evaluates allocation-free.
func Compile(src string) (*Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(ast)
}

// CompileAST checks an already-parsed expression and wraps it as a
// program. The program evaluates ast itself, so the caller must not
// modify ast afterwards.
func CompileAST(ast Expr) (*Program, error) {
	kind, err := Check(ast)
	if err != nil {
		return nil, err
	}
	return &Program{root: ast, kind: kind, src: String(ast)}, nil
}

// Eval runs the program against env and returns the raw value: seconds
// for durations, 0/1 for booleans. It walks the checked tree, whose
// nodes read env's slots directly and keep intermediate values on the
// goroutine stack, so evaluation performs zero heap allocations — the
// property BenchmarkExprEval pins.
func (p *Program) Eval(env *Env) float64 { return p.root.eval(env) }

// EvalBool evaluates a Bool-typed program as a truth value.
func (p *Program) EvalBool(env *Env) bool { return p.Eval(env) != 0 }

// Shared evaluation semantics. The tree evaluator and the reference
// interpreter (test code) both call these helpers, so a differential
// mismatch can only come from a structural evaluator bug — exactly what
// the differential battery is for — never from two hand-copied
// implementations of the same builtin drifting apart.

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rampF clamps to [0, 1]: 0 before the window, linear inside, 1 after.
func rampF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func minF(a, b float64) float64 { return math.Min(a, b) }
func maxF(a, b float64) float64 { return math.Max(a, b) }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func notF(x float64) float64 {
	if x == 0 {
		return 1
	}
	return 0
}

func (e *Lit) eval(*Env) float64 { return e.Val }

// eval reads the clock: the checker admits exactly one bare variable.
func (e *Ident) eval(env *Env) float64 { return env.T }

func (e *Unary) eval(env *Env) float64 {
	x := e.X.eval(env)
	if e.Op == OpNeg {
		return -x
	}
	return notF(x)
}

// eval short-circuits && and ||: booleans are exactly 0 or 1, so the
// left operand is the result whenever it decides the connective.
func (e *Binary) eval(env *Env) float64 {
	switch e.Op {
	case OpAnd:
		if x := e.X.eval(env); x == 0 {
			return x
		}
		return e.Y.eval(env)
	case OpOr:
		if x := e.X.eval(env); x != 0 {
			return x
		}
		return e.Y.eval(env)
	}
	x, y := e.X.eval(env), e.Y.eval(env)
	switch e.Op {
	case OpAdd:
		return x + y
	case OpSub:
		return x - y
	case OpMul:
		return x * y
	case OpDiv:
		return x / y
	case OpLT:
		return b2f(x < y)
	case OpLE:
		return b2f(x <= y)
	case OpGT:
		return b2f(x > y)
	case OpGE:
		return b2f(x >= y)
	case OpEQ:
		return b2f(x == y)
	}
	return b2f(x != y) // OpNE
}

// eval dispatches on the builtin the checker bound the call to.
func (e *Call) eval(env *Env) float64 {
	switch e.fn {
	case fnX:
		return env.X
	case fnP50:
		return env.P50
	case fnP90:
		return env.P90
	case fnP99:
		return env.P99
	case fnUtil:
		return env.Util[e.tier][e.res]
	case fnReplicas:
		return env.Replicas[e.tier]
	case fnRamp:
		return rampF(e.Args[0].eval(env))
	case fnSin:
		return math.Sin(e.Args[0].eval(env))
	case fnMin:
		return minF(e.Args[0].eval(env), e.Args[1].eval(env))
	case fnMax:
		return maxF(e.Args[0].eval(env), e.Args[1].eval(env))
	case fnClamp:
		return clampF(e.Args[0].eval(env), e.Args[1].eval(env), e.Args[2].eval(env))
	}
	panic("expr: evaluating unchecked call to " + e.Fn)
}
