package expr

// maxDepth bounds expression nesting so adversarial inputs (fuzzed
// megabyte paren towers) fail fast instead of exhausting the goroutine
// stack in the recursive parser, checker, and evaluator.
const maxDepth = 64

// Parse reads one expression and requires it to consume the whole
// source. Positions in errors are 1-based line:col within src; callers
// embedding expressions in a larger document translate them with the
// span's own start position.
func Parse(src string) (Expr, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseBinary(precOr, 0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, errAt(p.tok.pos, "unexpected %q after expression", p.tok.text)
	}
	return e, nil
}

// ParsePrefix reads the longest expression that is a prefix of src and
// returns it together with the byte offset where the expression stopped
// (len(src) when it consumed everything). Host grammars that embed an
// expression followed by their own keywords — a policy's
// `when EXPR cooldown 60s` — parse the expression with ParsePrefix and
// resume their own parser at the returned offset. The Pratt loop stops
// naturally at the first token that cannot continue the expression, such
// as a bare keyword identifier not followed by '('.
func ParsePrefix(src string) (Expr, int, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, 0, err
	}
	e, err := p.parseBinary(precOr, 0)
	if err != nil {
		return nil, 0, err
	}
	return e, p.tok.off, nil
}

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// parseBinary is the Pratt loop: parse a unary operand, then fold in
// binary operators of at least minPrec, left-associatively.
func (p *parser) parseBinary(minPrec, depth int) (Expr, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression nested deeper than %d levels", maxDepth)
	}
	x, err := p.parseUnary(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tOp {
		op := p.tok.op
		if op == OpNot {
			return nil, errAt(p.tok.pos, "unexpected %q", p.tok.text)
		}
		prec := binaryPrec(op)
		if prec < minPrec {
			break
		}
		opPos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseBinary(prec+1, depth+1)
		if err != nil {
			return nil, err
		}
		x = &Binary{At: opPos, Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary(depth int) (Expr, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression nested deeper than %d levels", maxDepth)
	}
	if p.tok.kind == tOp {
		switch p.tok.op {
		case OpSub:
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseUnary(depth + 1)
			if err != nil {
				return nil, err
			}
			return &Unary{At: pos, Op: OpNeg, X: x}, nil
		case OpNot:
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseUnary(depth + 1)
			if err != nil {
				return nil, err
			}
			return &Unary{At: pos, Op: OpNot, X: x}, nil
		}
	}
	return p.parsePrimary(depth + 1)
}

func (p *parser) parsePrimary(depth int) (Expr, error) {
	switch p.tok.kind {
	case tNumber:
		e := &Lit{At: p.tok.pos, Val: p.tok.val, Unit: p.tok.unit, Text: p.tok.text}
		return e, p.advance()
	case tIdent:
		name, pos := p.tok.text, p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tLParen {
			return &Ident{At: pos, Name: name}, nil
		}
		if err := p.advance(); err != nil { // consume "("
			return nil, err
		}
		call := &Call{At: pos, Fn: name}
		if p.tok.kind == tRParen {
			return call, p.advance()
		}
		for {
			arg, err := p.parseBinary(precOr, depth+1)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.tok.kind == tComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if p.tok.kind != tRParen {
			return nil, errAt(p.tok.pos, "expected ')' in call to %s, found %q", name, p.tok.text)
		}
		return call, p.advance()
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseBinary(precOr, depth+1)
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, errAt(p.tok.pos, "expected ')', found %q", p.tok.text)
		}
		return e, p.advance()
	case tEOF:
		return nil, errAt(p.tok.pos, "unexpected end of expression")
	}
	return nil, errAt(p.tok.pos, "unexpected %q", p.tok.text)
}
