// Package expr is TBL's embedded expression language: a small, typed,
// unit-aware functional core that turns static scenario specs into
// dynamic ones. A TBL clause like
//
//	users 100 + 900*ramp(t/300s);
//	slo { assert p99(rt) < 500ms && util(db, disk) < 0.9; }
//
// compiles once per trial (lex → Pratt parse → type check) and then
// evaluates allocation-free at every observation window: each node of the
// checked tree evaluates itself, reading environment slots the checker
// bound (no map lookups, no interface boxing).
//
// Expressions are pure functions of the observation environment (window
// statistics and the clock); they draw no randomness, so adding an
// expression to a spec never perturbs the random streams of the trial
// engines, and evaluating the same expression over the same window state
// is bit-for-bit reproducible.
//
// The three value types are Float (a bare number), Duration (a number
// with an s or ms unit, carried in seconds), and Bool. Unit awareness is
// enforced by the checker: durations add and subtract with durations,
// scale by floats, and divide by durations to yield floats; comparisons
// require matching types, so `p99(rt) < 0.5` is a compile error while
// `p99(rt) < 500ms` is well-typed.
package expr

import (
	"fmt"
	"strings"
)

// Pos is a 1-based source position inside an expression.
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a positioned expression error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("expr: %s: %s", e.Pos, e.Msg) }

func errAt(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Kind is a value type.
type Kind uint8

const (
	// Float is a bare number.
	Float Kind = iota
	// Duration is a number of seconds, written with an s or ms unit.
	Duration
	// Bool is a truth value, represented at runtime as 0 or 1.
	Bool
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Duration:
		return "duration"
	case Bool:
		return "bool"
	}
	return "invalid"
}

// Op enumerates the unary and binary operators.
type Op uint8

const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // /
	OpLT            // <
	OpLE            // <=
	OpGT            // >
	OpGE            // >=
	OpEQ            // ==
	OpNE            // !=
	OpAnd           // &&
	OpOr            // ||
	OpNeg           // unary -
	OpNot           // unary !
)

var opText = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
	OpAnd: "&&", OpOr: "||", OpNeg: "-", OpNot: "!",
}

func (o Op) String() string { return opText[o] }

// Expr is an expression AST node.
type Expr interface {
	// Pos reports the node's source position.
	Pos() Pos
	// print renders the node into b with minimal parentheses; prec is
	// the binding power of the surrounding context.
	print(b *strings.Builder, prec int)
	// eval evaluates a checked node against env (see Program.Eval).
	eval(env *Env) float64
}

// Lit is a numeric literal, possibly carrying a duration unit. Val holds
// the canonical value (seconds for durations); Text preserves the
// literal exactly as written so rendering round-trips without float
// dust.
type Lit struct {
	At   Pos
	Val  float64
	Unit string // "", "s", or "ms"
	Text string // source text including the unit
}

// Ident is a bare name: the clock variable `t`, or a symbolic argument
// (`rt`, tier and resource names) inside a builtin call.
type Ident struct {
	At   Pos
	Name string
}

// Unary is -x or !x.
type Unary struct {
	At Pos
	Op Op
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	At   Pos
	Op   Op
	X, Y Expr
}

// Call is a builtin invocation.
type Call struct {
	At   Pos // position of the function name
	Fn   string
	Args []Expr

	// Check binds the call: the builtin Fn names and, for util and
	// replicas, the environment slot the symbolic arguments name.
	fn        builtin
	tier, res int
}

func (e *Lit) Pos() Pos    { return e.At }
func (e *Ident) Pos() Pos  { return e.At }
func (e *Unary) Pos() Pos  { return e.At }
func (e *Binary) Pos() Pos { return e.At }
func (e *Call) Pos() Pos   { return e.At }

// Operator binding powers, loosest to tightest. The printer and the
// parser share these, which is what makes printing a fixpoint.
const (
	precOr     = 1
	precAnd    = 2
	precCmp    = 3
	precAdd    = 4
	precMul    = 5
	precUnary  = 6
	precIgnore = 0 // top-level context: never parenthesize
)

// binaryPrec reports a binary operator's binding power.
func binaryPrec(op Op) int {
	switch op {
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return precCmp
	case OpAdd, OpSub:
		return precAdd
	case OpMul, OpDiv:
		return precMul
	}
	return precUnary
}

// String renders the expression in canonical form. The rendering
// re-parses to a structurally identical AST (a property the test suite
// pins), so specs can store the canonical text and round-trip exactly.
func String(e Expr) string {
	var b strings.Builder
	e.print(&b, precIgnore)
	return b.String()
}

func (e *Lit) print(b *strings.Builder, _ int) { b.WriteString(e.Text) }

func (e *Ident) print(b *strings.Builder, _ int) { b.WriteString(e.Name) }

func (e *Unary) print(b *strings.Builder, prec int) {
	parens := precUnary < prec
	if parens {
		b.WriteByte('(')
	}
	b.WriteString(e.Op.String())
	e.X.print(b, precUnary)
	if parens {
		b.WriteByte(')')
	}
}

func (e *Binary) print(b *strings.Builder, prec int) {
	p := binaryPrec(e.Op)
	parens := p < prec
	if parens {
		b.WriteByte('(')
	}
	// Left-associative grammar: the left child tolerates its own
	// precedence, the right child needs strictly tighter binding.
	// Multiplicative operators print tight (900*ramp(t/300s)), looser
	// ones spaced — a style choice; either way print is a parse fixpoint.
	e.X.print(b, p)
	if p == precMul {
		b.WriteString(e.Op.String())
	} else {
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
	}
	e.Y.print(b, p+1)
	if parens {
		b.WriteByte(')')
	}
}

func (e *Call) print(b *strings.Builder, _ int) {
	b.WriteString(e.Fn)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.print(b, precIgnore)
	}
	b.WriteByte(')')
}
