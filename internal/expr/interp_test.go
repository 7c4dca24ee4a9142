package expr

import "math"

// evalRef is the reference interpreter the differential battery runs
// against Program.Eval. It lives in test code only and deliberately
// shares the semantic helpers (b2f, rampF, clampF, minF, maxF, notF)
// with the evaluator: the two differ in *structure* (one type switch
// that resolves builtins and slots by name vs. per-node methods reading
// the slots Check bound), which is exactly the axis the differential
// tests probe, while the leaf arithmetic is common so a mismatch always
// means a checker or evaluator bug.
func evalRef(e Expr, env *Env) float64 {
	switch n := e.(type) {
	case *Lit:
		return n.Val
	case *Ident:
		// The checker admits exactly one bare variable: the clock.
		return env.T
	case *Unary:
		x := evalRef(n.X, env)
		if n.Op == OpNeg {
			return -x
		}
		return notF(x)
	case *Binary:
		switch n.Op {
		case OpAnd:
			x := evalRef(n.X, env)
			if x == 0 {
				return x
			}
			return evalRef(n.Y, env)
		case OpOr:
			x := evalRef(n.X, env)
			if x != 0 {
				return x
			}
			return evalRef(n.Y, env)
		}
		x := evalRef(n.X, env)
		y := evalRef(n.Y, env)
		switch n.Op {
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
		case OpNE:
			return b2f(x != y)
		}
		panic("evalRef: invalid binary op")
	case *Call:
		switch n.Fn {
		case "x":
			return env.X
		case "p50":
			return env.P50
		case "p90":
			return env.P90
		case "p99":
			return env.P99
		case "util":
			ti, _ := TierIndex(n.Args[0].(*Ident).Name)
			ri, _ := ResourceIndex(n.Args[1].(*Ident).Name)
			return env.Util[ti][ri]
		case "replicas":
			ti, _ := TierIndex(n.Args[0].(*Ident).Name)
			return env.Replicas[ti]
		case "ramp":
			return rampF(evalRef(n.Args[0], env))
		case "sin":
			return math.Sin(evalRef(n.Args[0], env))
		case "min":
			return minF(evalRef(n.Args[0], env), evalRef(n.Args[1], env))
		case "max":
			return maxF(evalRef(n.Args[0], env), evalRef(n.Args[1], env))
		case "clamp":
			return clampF(evalRef(n.Args[0], env), evalRef(n.Args[1], env), evalRef(n.Args[2], env))
		}
		panic("evalRef: unknown function " + n.Fn)
	}
	panic("evalRef: invalid node")
}
