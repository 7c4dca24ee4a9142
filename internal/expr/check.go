package expr

// Check type-checks an expression and returns its result type. The
// checker is what makes the language unit-aware: durations and floats
// are distinct, comparisons need matching operand types, and the
// boolean connectives need booleans. It also binds every builtin call
// to its function and environment slot, so a checked tree evaluates
// without looking up a name.
func Check(e Expr) (Kind, error) {
	return checkExpr(e, 0)
}

func checkExpr(e Expr, depth int) (Kind, error) {
	if depth > maxDepth {
		return 0, errAt(e.Pos(), "expression nested deeper than %d levels", maxDepth)
	}
	switch n := e.(type) {
	case *Lit:
		if n.Unit != "" {
			return Duration, nil
		}
		return Float, nil
	case *Ident:
		if n.Name == "t" {
			return Duration, nil
		}
		return 0, errAt(n.At, "unknown variable %q (the clock is t; observations are builtins like x() and util(db, cpu))", n.Name)
	case *Unary:
		k, err := checkExpr(n.X, depth+1)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case OpNeg:
			if k == Bool {
				return 0, errAt(n.At, "operator - needs a float or duration, got bool")
			}
			return k, nil
		case OpNot:
			if k != Bool {
				return 0, errAt(n.At, "operator ! needs a bool, got %s", k)
			}
			return Bool, nil
		}
		return 0, errAt(n.At, "invalid unary operator %s", n.Op)
	case *Binary:
		return checkBinary(n, depth)
	case *Call:
		return checkCall(n, depth)
	}
	return 0, errAt(e.Pos(), "invalid expression node")
}

func checkBinary(n *Binary, depth int) (Kind, error) {
	xk, err := checkExpr(n.X, depth+1)
	if err != nil {
		return 0, err
	}
	yk, err := checkExpr(n.Y, depth+1)
	if err != nil {
		return 0, err
	}
	switch n.Op {
	case OpAdd, OpSub:
		if xk == Float && yk == Float {
			return Float, nil
		}
		if xk == Duration && yk == Duration {
			return Duration, nil
		}
		return 0, errAt(n.At, "operator %s needs matching float or duration operands, got %s and %s", n.Op, xk, yk)
	case OpMul:
		switch {
		case xk == Float && yk == Float:
			return Float, nil
		case xk == Duration && yk == Float, xk == Float && yk == Duration:
			return Duration, nil
		}
		return 0, errAt(n.At, "operator * cannot combine %s and %s", xk, yk)
	case OpDiv:
		switch {
		case xk == Float && yk == Float:
			return Float, nil
		case xk == Duration && yk == Float:
			return Duration, nil
		case xk == Duration && yk == Duration:
			return Float, nil
		}
		return 0, errAt(n.At, "operator / cannot combine %s and %s", xk, yk)
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		if xk == yk && xk != Bool {
			return Bool, nil
		}
		return 0, errAt(n.At, "comparison %s needs matching float or duration operands, got %s and %s", n.Op, xk, yk)
	case OpAnd, OpOr:
		if xk == Bool && yk == Bool {
			return Bool, nil
		}
		return 0, errAt(n.At, "operator %s needs bool operands, got %s and %s", n.Op, xk, yk)
	}
	return 0, errAt(n.At, "invalid binary operator %s", n.Op)
}

// Tier and resource indices for the util(tier, resource) observation.
// They mirror the simulator's (tier, resource) contention matrix.
const (
	TierWeb = 0
	TierApp = 1
	TierDB  = 2
	// NumTiers dimensions Env.Util.
	NumTiers = 3

	ResCPU  = 0
	ResDisk = 1
	ResNet  = 2
	// NumResources dimensions Env.Util.
	NumResources = 3
)

// TierIndex resolves a tier name; ok is false for unknown names.
func TierIndex(name string) (int, bool) {
	switch name {
	case "web":
		return TierWeb, true
	case "app":
		return TierApp, true
	case "db":
		return TierDB, true
	}
	return 0, false
}

// ResourceIndex resolves a resource name; ok is false for unknown names.
func ResourceIndex(name string) (int, bool) {
	switch name {
	case "cpu":
		return ResCPU, true
	case "disk":
		return ResDisk, true
	case "net":
		return ResNet, true
	}
	return 0, false
}

// builtin is the function a checked call evaluates; the zero value
// marks a call Check has not bound.
type builtin uint8

const (
	fnX builtin = iota + 1
	fnP50
	fnP90
	fnP99
	fnUtil
	fnReplicas
	fnRamp
	fnSin
	fnMin
	fnMax
	fnClamp
)

// builtins maps each function name to its builtin.
var builtins = map[string]builtin{
	"x": fnX, "p50": fnP50, "p90": fnP90, "p99": fnP99, "util": fnUtil, "replicas": fnReplicas,
	"ramp": fnRamp, "sin": fnSin, "min": fnMin, "max": fnMax, "clamp": fnClamp,
}

// checkCall validates a builtin invocation and binds it. Three builtins
// take symbolic arguments — bare identifiers naming an observation slot,
// not values — which the checker resolves here to fixed environment
// slots.
func checkCall(n *Call, depth int) (Kind, error) {
	n.fn = builtins[n.Fn]
	switch n.Fn {
	case "x":
		if len(n.Args) != 0 {
			return 0, errAt(n.At, "x() takes no arguments")
		}
		return Float, nil
	case "p50", "p90", "p99":
		if len(n.Args) != 1 {
			return 0, errAt(n.At, "%s takes exactly one argument: rt", n.Fn)
		}
		id, ok := n.Args[0].(*Ident)
		if !ok || id.Name != "rt" {
			return 0, errAt(n.Args[0].Pos(), "%s observes the response-time distribution; write %s(rt)", n.Fn, n.Fn)
		}
		return Duration, nil
	case "util":
		if len(n.Args) != 2 {
			return 0, errAt(n.At, "util takes exactly two arguments: util(tier, resource)")
		}
		tid, ok := n.Args[0].(*Ident)
		if !ok {
			return 0, errAt(n.Args[0].Pos(), "util's first argument names a tier: web, app, or db")
		}
		if n.tier, ok = TierIndex(tid.Name); !ok {
			return 0, errAt(tid.At, "unknown tier %q (want web, app, or db)", tid.Name)
		}
		rid, ok := n.Args[1].(*Ident)
		if !ok {
			return 0, errAt(n.Args[1].Pos(), "util's second argument names a resource: cpu, disk, or net")
		}
		if n.res, ok = ResourceIndex(rid.Name); !ok {
			return 0, errAt(rid.At, "unknown resource %q (want cpu, disk, or net)", rid.Name)
		}
		return Float, nil
	case "replicas":
		if len(n.Args) != 1 {
			return 0, errAt(n.At, "replicas takes exactly one argument: replicas(tier)")
		}
		tid, ok := n.Args[0].(*Ident)
		if !ok {
			return 0, errAt(n.Args[0].Pos(), "replicas' argument names a tier: web, app, or db")
		}
		if n.tier, ok = TierIndex(tid.Name); !ok {
			return 0, errAt(tid.At, "unknown tier %q (want web, app, or db)", tid.Name)
		}
		return Float, nil
	case "ramp", "sin":
		if len(n.Args) != 1 {
			return 0, errAt(n.At, "%s takes exactly one float argument", n.Fn)
		}
		k, err := checkExpr(n.Args[0], depth+1)
		if err != nil {
			return 0, err
		}
		if k != Float {
			return 0, errAt(n.Args[0].Pos(), "%s needs a float argument, got %s (divide durations to make them unitless: t/300s)", n.Fn, k)
		}
		return Float, nil
	case "min", "max":
		if len(n.Args) != 2 {
			return 0, errAt(n.At, "%s takes exactly two arguments", n.Fn)
		}
		xk, err := checkExpr(n.Args[0], depth+1)
		if err != nil {
			return 0, err
		}
		yk, err := checkExpr(n.Args[1], depth+1)
		if err != nil {
			return 0, err
		}
		if xk != yk || xk == Bool {
			return 0, errAt(n.At, "%s needs matching float or duration arguments, got %s and %s", n.Fn, xk, yk)
		}
		return xk, nil
	case "clamp":
		if len(n.Args) != 3 {
			return 0, errAt(n.At, "clamp takes exactly three arguments: clamp(x, lo, hi)")
		}
		var kinds [3]Kind
		for i, a := range n.Args {
			k, err := checkExpr(a, depth+1)
			if err != nil {
				return 0, err
			}
			kinds[i] = k
		}
		if kinds[0] == Bool || kinds[0] != kinds[1] || kinds[1] != kinds[2] {
			return 0, errAt(n.At, "clamp needs three matching float or duration arguments, got %s, %s, %s",
				kinds[0], kinds[1], kinds[2])
		}
		return kinds[0], nil
	}
	return 0, errAt(n.At, "unknown function %q", n.Fn)
}
