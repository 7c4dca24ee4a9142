package expr

import (
	"math/rand"
	"strconv"
)

// gen produces random well-typed expression ASTs for the differential
// and property batteries. It is seeded, so every run of the suite tests
// the same expression population.
type gen struct {
	r *rand.Rand
}

var genTiers = []string{"web", "app", "db"}
var genResources = []string{"cpu", "disk", "net"}

// litValues is the leaf value pool. It deliberately includes 0 (divide
// by zero → IEEE Inf/NaN must match bit-for-bit across Eval and the
// interpreter) and values on both sides of the ramp/clamp knees.
var litValues = []float64{0, 0.25, 0.5, 0.9, 1, 2, 3.25, 10, 100, 900}

func (g *gen) lit(kind Kind) Expr {
	v := litValues[g.r.Intn(len(litValues))]
	if g.r.Intn(4) == 0 {
		v = float64(g.r.Intn(1000)) / 8 // exact in binary, round-trips
	}
	text := strconv.FormatFloat(v, 'f', -1, 64)
	if kind == Float {
		return &Lit{Val: v, Text: text}
	}
	if g.r.Intn(2) == 0 {
		return &Lit{Val: v, Unit: "s", Text: text + "s"}
	}
	// Express the same magnitude in milliseconds: value divides by 1e3
	// exactly as the lexer does.
	return &Lit{Val: v / 1e3, Unit: "ms", Text: text + "ms"}
}

func (g *gen) expr(kind Kind, depth int) Expr {
	if depth <= 0 {
		return g.leaf(kind)
	}
	switch kind {
	case Float:
		switch g.r.Intn(10) {
		case 0:
			return g.leaf(Float)
		case 1:
			return &Unary{Op: OpNeg, X: g.expr(Float, depth-1)}
		case 2, 3:
			return &Binary{Op: g.arith(), X: g.expr(Float, depth-1), Y: g.expr(Float, depth-1)}
		case 4:
			return &Binary{Op: OpDiv, X: g.expr(Duration, depth-1), Y: g.expr(Duration, depth-1)}
		case 5:
			return &Call{Fn: "ramp", Args: []Expr{g.expr(Float, depth-1)}}
		case 6:
			return &Call{Fn: "sin", Args: []Expr{g.expr(Float, depth-1)}}
		case 7:
			return &Call{Fn: g.pick("min", "max"), Args: []Expr{g.expr(Float, depth-1), g.expr(Float, depth-1)}}
		case 8:
			return &Call{Fn: "clamp", Args: []Expr{g.expr(Float, depth-1), g.expr(Float, depth-1), g.expr(Float, depth-1)}}
		default:
			return g.leaf(Float)
		}
	case Duration:
		switch g.r.Intn(8) {
		case 0:
			return g.leaf(Duration)
		case 1:
			return &Unary{Op: OpNeg, X: g.expr(Duration, depth-1)}
		case 2:
			return &Binary{Op: g.pickOp(OpAdd, OpSub), X: g.expr(Duration, depth-1), Y: g.expr(Duration, depth-1)}
		case 3:
			if g.r.Intn(2) == 0 {
				return &Binary{Op: OpMul, X: g.expr(Duration, depth-1), Y: g.expr(Float, depth-1)}
			}
			return &Binary{Op: OpMul, X: g.expr(Float, depth-1), Y: g.expr(Duration, depth-1)}
		case 4:
			return &Binary{Op: OpDiv, X: g.expr(Duration, depth-1), Y: g.expr(Float, depth-1)}
		case 5:
			return &Call{Fn: g.pick("min", "max"), Args: []Expr{g.expr(Duration, depth-1), g.expr(Duration, depth-1)}}
		case 6:
			return &Call{Fn: "clamp", Args: []Expr{g.expr(Duration, depth-1), g.expr(Duration, depth-1), g.expr(Duration, depth-1)}}
		default:
			return g.leaf(Duration)
		}
	default: // Bool
		switch g.r.Intn(6) {
		case 0:
			return &Unary{Op: OpNot, X: g.expr(Bool, depth-1)}
		case 1, 2:
			return &Binary{Op: g.pickOp(OpAnd, OpOr), X: g.expr(Bool, depth-1), Y: g.expr(Bool, depth-1)}
		default:
			k := Float
			if g.r.Intn(2) == 0 {
				k = Duration
			}
			return &Binary{Op: g.cmp(), X: g.expr(k, depth-1), Y: g.expr(k, depth-1)}
		}
	}
}

func (g *gen) leaf(kind Kind) Expr {
	switch kind {
	case Float:
		switch g.r.Intn(5) {
		case 0:
			return &Call{Fn: "x"}
		case 1:
			return &Call{Fn: "util", Args: []Expr{
				&Ident{Name: genTiers[g.r.Intn(len(genTiers))]},
				&Ident{Name: genResources[g.r.Intn(len(genResources))]},
			}}
		case 2:
			return &Call{Fn: "replicas", Args: []Expr{
				&Ident{Name: genTiers[g.r.Intn(len(genTiers))]},
			}}
		default:
			return g.lit(Float)
		}
	case Duration:
		switch g.r.Intn(4) {
		case 0:
			return &Ident{Name: "t"}
		case 1:
			return &Call{Fn: g.pick("p50", "p90", "p99"), Args: []Expr{&Ident{Name: "rt"}}}
		default:
			return g.lit(Duration)
		}
	default: // Bool has no leaves: a minimal comparison stands in
		k := Float
		if g.r.Intn(2) == 0 {
			k = Duration
		}
		return &Binary{Op: g.cmp(), X: g.leaf(k), Y: g.leaf(k)}
	}
}

func (g *gen) arith() Op {
	return []Op{OpAdd, OpSub, OpMul, OpDiv}[g.r.Intn(4)]
}

func (g *gen) cmp() Op {
	return []Op{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}[g.r.Intn(6)]
}

func (g *gen) pick(names ...string) string { return names[g.r.Intn(len(names))] }
func (g *gen) pickOp(ops ...Op) Op         { return ops[g.r.Intn(len(ops))] }

// genEnvs is the environment population each generated expression is
// evaluated under: a typical mid-run window, an idle window, a saturated
// window, a zero-state window, and a poisoned window (NaN quantile) to
// pin IEEE comparison semantics across both evaluators.
func genEnvs() []Env {
	sat := Env{T: 600, X: 412.7, P50: 0.31, P90: 1.9, P99: 4.25}
	for i := 0; i < NumTiers; i++ {
		for j := 0; j < NumResources; j++ {
			sat.Util[i][j] = 0.97
		}
	}
	sat.Replicas = [NumTiers]float64{4, 12, 2}
	mid := Env{T: 180.5, X: 151.25, P50: 0.012, P90: 0.09, P99: 0.41}
	mid.Util = [NumTiers][NumResources]float64{
		{0.22, 0.01, 0.08},
		{0.55, 0.12, 0.18},
		{0.38, 0.86, 0.05},
	}
	mid.Replicas = [NumTiers]float64{1, 2, 1}
	return []Env{
		mid,
		{T: 0, X: 0, P50: 0, P90: 0, P99: 0},
		sat,
		{T: 42.125, X: 1e-9, P50: 1e9, P90: 1e9, P99: 1e9},
		{T: 300, X: 77, P50: 0.02, P90: 0.2, P99: nan()},
	}
}

func nan() float64 { return 0 / zero }

var zero float64 // defeats constant folding by the Go compiler
