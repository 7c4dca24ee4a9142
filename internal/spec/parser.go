package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"elba/internal/expr"
)

// tokKind classifies TBL lexemes.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tString
	tNumber // may carry a unit suffix: 60s, 300ms, 50
	tPunct
)

type tok struct {
	kind tokKind
	text string
	line int
	col  int // 1-based column of the token's first byte
}

type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first byte
}

// col reports the 1-based column of a byte offset on the current line.
func (l *lexer) colAt(off int) int { return off - l.lineStart + 1 }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("tbl: line %d:%d: %s", l.line, l.colAt(l.pos), fmt.Sprintf(format, args...))
}

func (l *lexer) next() (tok, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.scan()
		}
	}
	return tok{kind: tEOF, line: l.line, col: l.colAt(l.pos)}, nil
}

func (l *lexer) scan() (tok, error) {
	c := l.src[l.pos]
	start := l.pos
	line, col := l.line, l.colAt(start)
	mk := func(kind tokKind, text string) tok {
		return tok{kind: kind, text: text, line: line, col: col}
	}
	switch {
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return tok{}, l.errf("newline in string")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return tok{}, l.errf("unterminated string")
		}
		l.pos++
		return mk(tString, l.src[start+1:l.pos-1]), nil
	case unicode.IsDigit(rune(c)):
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
			l.pos++
		}
		// absorb dash-joined digit groups so topology triples like
		// "1-8-2" stay one token
		for l.pos+1 < len(l.src) && l.src[l.pos] == '-' && unicode.IsDigit(rune(l.src[l.pos+1])) {
			l.pos++
			for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
				l.pos++
			}
		}
		// absorb a unit suffix (s, ms, %)
		for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || l.src[l.pos] == '%') {
			l.pos++
		}
		return mk(tNumber, l.src[start:l.pos]), nil
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_' || l.src[l.pos] == '-') {
			l.pos++
		}
		return mk(tIdent, l.src[start:l.pos]), nil
	case strings.ContainsRune("{};,", rune(c)):
		l.pos++
		return mk(tPunct, string(c)), nil
	default:
		return tok{}, l.errf("unexpected character %q", c)
	}
}

type parser struct {
	lx   *lexer
	tok  tok
	last tok // most recently consumed token, for exact-position errors
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.last = p.tok
	p.tok = t
	return nil
}

// errf reports an error at the current (unconsumed) token.
func (p *parser) errf(format string, args ...interface{}) error {
	return errTok(p.tok, format, args...)
}

// errLast reports an error at the most recently consumed token. Use it
// when the token itself is the problem ("unknown clause %q") and the
// parser has already advanced past it — reporting the current token
// would point at whatever happens to follow, often on the wrong line.
func (p *parser) errLast(format string, args ...interface{}) error {
	return errTok(p.last, format, args...)
}

// errTok reports an error positioned at a specific token.
func errTok(t tok, format string, args ...interface{}) error {
	return fmt.Errorf("tbl: line %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tIdent {
		return "", p.errf("expected identifier, found %q", p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

// number parses a bare number (no unit).
func (p *parser) number() (float64, error) {
	if p.tok.kind != tNumber {
		return 0, p.errf("expected number, found %q", p.tok.text)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errf("invalid number %q (unit not allowed here)", p.tok.text)
	}
	return v, p.advance()
}

// uint64Number parses an exact unsigned integer. Seeds need this: going
// through float64 silently rounds values above 2^53.
func (p *parser) uint64Number() (uint64, error) {
	if p.tok.kind != tNumber {
		return 0, p.errf("expected integer, found %q", p.tok.text)
	}
	v, err := strconv.ParseUint(p.tok.text, 10, 64)
	if err != nil {
		return 0, p.errf("invalid integer %q", p.tok.text)
	}
	return v, p.advance()
}

// duration parses a number with an s or ms unit into seconds.
func (p *parser) duration() (float64, error) {
	if p.tok.kind != tNumber {
		return 0, p.errf("expected duration, found %q", p.tok.text)
	}
	text := p.tok.text
	var div float64
	var digits string
	switch {
	case strings.HasSuffix(text, "ms"):
		// Divide rather than multiply by an inexact 1e-3: division rounds
		// correctly, so 9ms parses to the double nearest 0.009 and renders
		// back without float dust.
		div, digits = 1e3, strings.TrimSuffix(text, "ms")
	case strings.HasSuffix(text, "s"):
		div, digits = 1, strings.TrimSuffix(text, "s")
	default:
		return 0, p.errf("duration %q needs an s or ms unit", text)
	}
	v, err := strconv.ParseFloat(digits, 64)
	if err != nil {
		return 0, p.errf("invalid duration %q", text)
	}
	return v / div, p.advance()
}

// millis parses a duration and returns milliseconds.
func (p *parser) millis() (float64, error) {
	sec, err := p.duration()
	return sec * 1000, err
}

// rangeOrValue parses "N" or "N to M step K", with numbers optionally
// carrying a % suffix (stripped; values stay in the written unit).
func (p *parser) rangeOrValue() (Range, error) {
	lo, err := p.rangeNumber()
	if err != nil {
		return Range{}, err
	}
	if p.tok.kind == tIdent && p.tok.text == "to" {
		if err := p.advance(); err != nil {
			return Range{}, err
		}
		hi, err := p.rangeNumber()
		if err != nil {
			return Range{}, err
		}
		if p.tok.kind != tIdent || p.tok.text != "step" {
			return Range{}, p.errf("range needs 'step', found %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return Range{}, err
		}
		step, err := p.rangeNumber()
		if err != nil {
			return Range{}, err
		}
		if step <= 0 {
			return Range{}, p.errf("range step must be positive")
		}
		if hi < lo {
			return Range{}, p.errf("range upper bound %g below lower bound %g", hi, lo)
		}
		return Range{Lo: lo, Hi: hi, Step: step}, nil
	}
	return Range{Lo: lo, Hi: lo}, nil
}

func (p *parser) rangeNumber() (float64, error) {
	if p.tok.kind != tNumber {
		return 0, p.errf("expected number, found %q", p.tok.text)
	}
	text := strings.TrimSuffix(p.tok.text, "%")
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, p.errf("invalid number %q", p.tok.text)
	}
	return v, p.advance()
}

// rawValue captures the raw source text from just after the current
// token up to (not including) the next ';', then leaves the parser
// positioned past that ';'. Expression-bearing clauses (users asserts,
// SLO asserts, fault when-guards) use it: expressions carry characters
// the TBL lexer does not tokenize ((, &&, !), so their span must be cut
// from the raw document and handed to the expression front end whole.
// The returned line/col locate the span's first byte for translating
// expression-error positions back into document coordinates.
func (p *parser) rawValue() (raw string, line, col int, err error) {
	l := p.lx
	start := l.pos
	idx := strings.IndexByte(l.src[start:], ';')
	if idx < 0 {
		return "", 0, 0, p.errf("missing ';' after %s", p.tok.text)
	}
	raw = l.src[start : start+idx]
	line, col = l.line, l.colAt(start)
	// The lexer never saw the span: replay its newlines so subsequent
	// tokens keep correct positions.
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\n' {
			l.line++
			l.lineStart = start + i + 1
		}
	}
	l.pos = start + idx
	if err := p.advance(); err != nil { // lex the ';'
		return "", 0, 0, err
	}
	if err := p.expectPunct(";"); err != nil {
		return "", 0, 0, err
	}
	return raw, line, col, nil
}

// exprErrAt translates an expression front-end error into document
// coordinates: expression positions are 1-based within the raw span,
// which starts at (line, col) in the document.
func exprErrAt(err error, line, col int) error {
	if ee, ok := err.(*expr.Error); ok {
		dl, dc := line+ee.Pos.Line-1, ee.Pos.Col
		if ee.Pos.Line == 1 {
			dc = col + ee.Pos.Col - 1
		}
		return fmt.Errorf("tbl: line %d:%d: %s", dl, dc, ee.Msg)
	}
	return fmt.Errorf("tbl: line %d:%d: %v", line, col, err)
}

// compileClauseExpr compiles a raw expression span captured at
// (line, col) and requires the given result type.
func compileClauseExpr(raw string, line, col int, want expr.Kind, clause string) (*expr.Program, error) {
	prog, err := expr.Compile(raw)
	if err != nil {
		return nil, exprErrAt(err, line, col)
	}
	if prog.Kind() != want {
		return nil, fmt.Errorf("tbl: line %d:%d: %s expression must be %s, got %s",
			line, col, clause, want, prog.Kind())
	}
	return prog, nil
}

// tryRange attempts to read a raw span starting at document position
// (line, col) as the static range grammar ("100" or "100 to 1000 step
// 100"). Static specs keep parsing into Range — byte-identically to
// before the expression language existed. The shape "<number>" or
// "<number> to ..." claims the range grammar definitively: a malformed
// range reports the range error (isRange true) instead of falling
// through to a baffling expression error. Everything else is handed to
// the expression parser.
func tryRange(raw string, line, col int) (r Range, isRange bool, err error) {
	// Seed the sub-lexer with document coordinates so any error it
	// reports points into the original file, not the captured span.
	mkSub := func() *parser {
		return &parser{lx: &lexer{src: raw, line: line, lineStart: -(col - 1)}}
	}
	shape := mkSub()
	if shape.advance() != nil || shape.tok.kind != tNumber {
		return Range{}, false, nil
	}
	if shape.advance() != nil {
		return Range{}, false, nil
	}
	if shape.tok.kind != tEOF && !(shape.tok.kind == tIdent && shape.tok.text == "to") {
		return Range{}, false, nil
	}
	sub := mkSub()
	if err := sub.advance(); err != nil {
		return Range{}, true, err
	}
	r, err = sub.rangeOrValue()
	if err != nil {
		return Range{}, true, err
	}
	if sub.tok.kind != tEOF {
		return Range{}, true, sub.errf("unexpected %q after range", sub.tok.text)
	}
	return r, true, nil
}

// Parse reads a TBL document.
func Parse(src string) (*Document, error) {
	p := &parser{lx: &lexer{src: src, line: 1}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	doc := &Document{}
	for p.tok.kind != tEOF {
		if p.tok.kind != tIdent || p.tok.text != "experiment" {
			return nil, p.errf("expected 'experiment', found %q", p.tok.text)
		}
		e, err := p.parseExperiment()
		if err != nil {
			return nil, err
		}
		doc.Experiments = append(doc.Experiments, e)
	}
	if len(doc.Experiments) == 0 {
		return nil, fmt.Errorf("tbl: document declares no experiments")
	}
	return doc, nil
}

func (p *parser) parseExperiment() (*Experiment, error) {
	if err := p.advance(); err != nil { // consume "experiment"
		return nil, err
	}
	if p.tok.kind != tString {
		return nil, p.errf("experiment needs a quoted name")
	}
	// The lexer has no escape sequences, so a name must be plain printable
	// UTF-8 to render back into a parseable quoted string (%q escapes
	// everything else, and escapes do not re-parse).
	if !utf8.ValidString(p.tok.text) {
		return nil, p.errf("experiment name %q is not valid UTF-8", p.tok.text)
	}
	for _, r := range p.tok.text {
		if r < 0x20 || r == 0x7f || r == '\\' || !unicode.IsPrint(r) {
			return nil, p.errf("experiment name %q contains unprintable or escape characters", p.tok.text)
		}
	}
	e := &Experiment{
		Name:     p.tok.text,
		Allocate: map[string]string{},
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		key, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.parseClause(e, key); err != nil {
			return nil, err
		}
	}
	if err := p.advance(); err != nil { // consume "}"
		return nil, err
	}
	applyDefaults(e)
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseClause(e *Experiment, key string) error {
	switch key {
	case "benchmark":
		v, err := p.expectIdent()
		if err != nil {
			return err
		}
		e.Benchmark = v
		return p.expectPunct(";")
	case "platform":
		v, err := p.expectIdent()
		if err != nil {
			return err
		}
		e.Platform = v
		return p.expectPunct(";")
	case "appserver":
		v, err := p.expectIdent()
		if err != nil {
			return err
		}
		e.AppServer = v
		return p.expectPunct(";")
	case "mix":
		v, err := p.expectIdent()
		if err != nil {
			return err
		}
		e.Mix = v
		return p.expectPunct(";")
	case "topology":
		return p.parseTopology(e)
	case "topologies":
		return p.parseTopologies(e)
	case "workload":
		return p.parseWorkload(e)
	case "trial":
		return p.parseTrial(e)
	case "slo":
		return p.parseSLO(e)
	case "monitor":
		return p.parseMonitor(e)
	case "allocate":
		return p.parseAllocate(e)
	case "demands":
		return p.parseDemands(e)
	case "scaling":
		return p.parseScaling(e)
	case "policies":
		return p.parsePolicies(e)
	case "faults":
		return p.parseFaults(e)
	case "seed":
		v, err := p.uint64Number()
		if err != nil {
			return err
		}
		e.Seed = v
		return p.expectPunct(";")
	case "repeat":
		v, err := p.number()
		if err != nil {
			return err
		}
		e.Repeat = int(v)
		return p.expectPunct(";")
	default:
		return p.errLast("unknown clause %q", key)
	}
}

func (p *parser) parseTopology(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		tierTok := p.tok
		tier, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch tier {
		case "web", "app", "db":
		default:
			return errTok(tierTok, "unknown tier %q", tier)
		}
		n, err := p.number()
		if err != nil {
			return err
		}
		switch tier {
		case "web":
			e.Topology.Web = int(n)
		case "app":
			e.Topology.App = int(n)
		case "db":
			e.Topology.DB = int(n)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

// parseTopologies reads a comma-separated list of w-a-d triples written as
// identifiers, e.g. "topologies 1-2-1, 1-3-1, 1-4-2;".
func (p *parser) parseTopologies(e *Experiment) error {
	for {
		if p.tok.kind != tNumber && p.tok.kind != tIdent {
			return p.errf("expected topology triple, found %q", p.tok.text)
		}
		t, err := ParseTopology(p.tok.text)
		if err != nil {
			return p.errf("%v", err)
		}
		e.Topologies = append(e.Topologies, t)
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		break
	}
	if len(e.Topologies) > 0 {
		e.Topology = e.Topologies[0]
	}
	return p.expectPunct(";")
}

// ParseTopology parses a "w-a-d" triple such as "1-8-2".
func ParseTopology(s string) (Topology, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Topology{}, fmt.Errorf("tbl: topology %q is not a w-a-d triple", s)
	}
	var nums [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return Topology{}, fmt.Errorf("tbl: topology %q has invalid component %q", s, p)
		}
		nums[i] = n
	}
	return Topology{Web: nums[0], App: nums[1], DB: nums[2]}, nil
}

func (p *parser) parseWorkload(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		// users may carry an expression, whose span must be captured
		// before the lexer touches it — peek the key without advancing.
		if p.tok.kind == tIdent && p.tok.text == "users" {
			raw, line, col, err := p.rawValue()
			if err != nil {
				return err
			}
			if r, isRange, rerr := tryRange(raw, line, col); isRange {
				if rerr != nil {
					return rerr
				}
				e.Workload.Users = r
				e.Workload.UsersExpr = ""
				continue
			}
			prog, err := compileClauseExpr(raw, line, col, expr.Float, "users")
			if err != nil {
				return err
			}
			e.Workload.UsersExpr = prog.Source()
			continue
		}
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "writeratio":
			r, err := p.rangeOrValue()
			if err != nil {
				return err
			}
			e.Workload.WriteRatioPct = r
		case "thinktime":
			v, err := p.duration()
			if err != nil {
				return err
			}
			e.Workload.ThinkTimeSec = v
		case "timeout":
			v, err := p.duration()
			if err != nil {
				return err
			}
			e.Workload.TimeoutSec = v
		default:
			return p.errLast("unknown workload key %q", key)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

func (p *parser) parseTrial(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		keyTok := p.tok
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "warmup", "run", "cooldown":
		default:
			return errTok(keyTok, "unknown trial key %q", key)
		}
		v, err := p.duration()
		if err != nil {
			return err
		}
		switch key {
		case "warmup":
			e.Trial.WarmupSec = v
		case "run":
			e.Trial.RunSec = v
		case "cooldown":
			e.Trial.CooldownSec = v
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

func (p *parser) parseSLO(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		// assert carries an expression: capture its raw span before the
		// TBL lexer can trip over expression-only characters.
		if p.tok.kind == tIdent && p.tok.text == "assert" {
			if e.SLO.AssertExpr != "" {
				return p.errf("slo already has an assert (combine predicates with &&)")
			}
			raw, line, col, err := p.rawValue()
			if err != nil {
				return err
			}
			prog, err := compileClauseExpr(raw, line, col, expr.Bool, "assert")
			if err != nil {
				return err
			}
			e.SLO.AssertExpr = prog.Source()
			continue
		}
		keyTok := p.tok
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "avg", "p90", "p99":
		default:
			return errTok(keyTok, "unknown slo key %q", key)
		}
		v, err := p.millis()
		if err != nil {
			return err
		}
		switch key {
		case "avg":
			e.SLO.AvgMS = v
		case "p90":
			e.SLO.P90MS = v
		case "p99":
			e.SLO.P99MS = v
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

func (p *parser) parseMonitor(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "interval":
			v, err := p.duration()
			if err != nil {
				return err
			}
			e.Monitor.IntervalSec = v
		case "metrics":
			for {
				m, err := p.expectIdent()
				if err != nil {
					return err
				}
				e.Monitor.Metrics = append(e.Monitor.Metrics, m)
				if p.tok.kind == tPunct && p.tok.text == "," {
					if err := p.advance(); err != nil {
						return err
					}
					continue
				}
				break
			}
		default:
			return p.errLast("unknown monitor key %q", key)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

// parseFaults reads the fault stanza. Entries are either a profile
// reference or a typed fault window:
//
//	faults {
//		profile light;
//		JONAS1 at 100s for 60s;                  # crash (original form)
//		JONAS1 crash at 100s for 60s;            # crash, explicit
//		MYSQL1 slowdown 0.5 at 80s for 30s;      # speed × 0.5
//		MYSQL1 stall 0.05 at 80s for 30s;        # near-stopped
//		client errorburst 0.2 at 80s for 30s;    # 20% request errors
//	}
func (p *parser) parseFaults(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		role, err := p.expectIdent()
		if err != nil {
			return err
		}
		if role == "profile" {
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			e.FaultProfile = name
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			continue
		}
		f := Fault{Role: role}
		kw, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch kw {
		case "at":
			// Original crash form: ROLE at Ns for Ms.
		case "crash":
			// Explicit crash spelling normalizes to the original form so
			// String() round-trips to a single rendering.
			if kw, err = p.expectIdent(); err != nil {
				return err
			}
		case "slowdown", "stall", "errorburst":
			f.Kind = kw
			if f.Factor, err = p.number(); err != nil {
				return err
			}
			if kw, err = p.expectIdent(); err != nil {
				return err
			}
		default:
			return p.errLast("unknown fault kind %q", kw)
		}
		if kw != "at" {
			return p.errf("fault needs 'at', found %q", kw)
		}
		if f.AtSec, err = p.duration(); err != nil {
			return err
		}
		if kw, err = p.expectIdent(); err != nil {
			return err
		}
		if kw != "for" {
			return p.errf("fault needs 'for', found %q", kw)
		}
		if f.DurationSec, err = p.duration(); err != nil {
			return err
		}
		if f.Kind == "errorburst" {
			if f.Role != "client" {
				return p.errf("errorburst faults target the client driver; write 'client errorburst', not %q", f.Role)
			}
			f.Role = ""
		}
		// Optional conditional guard: `... for 30s when util(app, cpu) > 0.8;`
		// arms the window only once the predicate has held in an observed
		// measurement window.
		if p.tok.kind == tIdent && p.tok.text == "when" {
			raw, line, col, err := p.rawValue()
			if err != nil {
				return err
			}
			prog, err := compileClauseExpr(raw, line, col, expr.Bool, "when")
			if err != nil {
				return err
			}
			f.WhenExpr = prog.Source()
			e.Faults = append(e.Faults, f)
			continue
		}
		e.Faults = append(e.Faults, f)
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

// parseDemands reads the per-tier resource-demand stanza:
//
//	demands {
//		db  { cpu 1.5; disk 9ms; net 2000; }   # scale CPU, add disk+net legs
//		app { net 4000; }                      # bytes into the app tier
//	}
//
// cpu is a bare multiplier on the benchmark's calibrated CPU demand,
// disk a duration at the reference spindle (s/ms unit required), net a
// bare payload size in bytes. Negative values cannot lex (the '-' is a
// parse error) and oversized literals fail number parsing, so every
// malformed demand is rejected with a positioned error.
func (p *parser) parseDemands(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		tier, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch tier {
		case "web", "app", "db":
		default:
			return p.errLast("demands names unknown tier %q", tier)
		}
		if err := p.expectPunct("{"); err != nil {
			return err
		}
		var d ResourceDemand
		for !(p.tok.kind == tPunct && p.tok.text == "}") {
			key, err := p.expectIdent()
			if err != nil {
				return err
			}
			switch key {
			case "cpu":
				if d.CPUScale, err = p.number(); err != nil {
					return err
				}
			case "disk":
				if d.DiskSec, err = p.duration(); err != nil {
					return err
				}
			case "net":
				if d.NetBytes, err = p.number(); err != nil {
					return err
				}
			default:
				return p.errLast("unknown demand key %q", key)
			}
			if err := p.expectPunct(";"); err != nil {
				return err
			}
		}
		if err := p.advance(); err != nil { // consume inner "}"
			return err
		}
		if e.Demands == nil {
			e.Demands = map[string]ResourceDemand{}
		}
		e.Demands[tier] = d
	}
	return p.advance()
}

func (p *parser) parseScaling(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch key {
		case "threshold":
			v, err := p.number()
			if err != nil {
				return err
			}
			// Range-check before the int conversion: out-of-range
			// float→int is implementation-defined, and no deployment has
			// a trillion users anyway.
			if !(v >= 0 && v <= 1e12) {
				return p.errf("scaling threshold %g out of range", v)
			}
			if v != math.Trunc(v) {
				return p.errf("scaling threshold %g must be an integer", v)
			}
			e.Scaling.ThresholdUsers = int(v)
		case "engine":
			v, err := p.expectIdent()
			if err != nil {
				return err
			}
			switch v {
			case "des", "fluid", "auto":
			default:
				return p.errf("unknown scaling engine %q (want des, fluid, or auto)", v)
			}
			e.Scaling.Engine = v
		default:
			return p.errLast("unknown scaling key %q", key)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}

// parsePolicies reads the autoscaling stanza:
//
//	policies {
//		scale app by 1 when util(app, cpu) > 0.8 cooldown 60s max 12;
//		scale app in by 1 when util(app, cpu) < 0.3 cooldown 120s min 2;
//	}
//
// The predicate span runs from `when` to the policy's own `cooldown`/
// `max`/`min` keywords: the expression front end parses the longest
// expression prefix (a bare `cooldown` identifier cannot continue an
// expression), and the TBL sub-parser resumes at the returned offset —
// so `max(...)` inside the predicate is a call while a trailing `max 12`
// is the replica bound.
func (p *parser) parsePolicies(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		kw, err := p.expectIdent()
		if err != nil {
			return err
		}
		if kw != "scale" {
			return p.errLast("policy needs 'scale', found %q", kw)
		}
		var pol Policy
		tierTok := p.tok
		if pol.Tier, err = p.expectIdent(); err != nil {
			return err
		}
		switch pol.Tier {
		case "web", "app", "db":
		default:
			return errTok(tierTok, "unknown tier %q", pol.Tier)
		}
		if p.tok.kind == tIdent && p.tok.text == "in" {
			pol.In = true
			if err := p.advance(); err != nil {
				return err
			}
		}
		if kw, err = p.expectIdent(); err != nil {
			return err
		}
		if kw != "by" {
			return p.errLast("policy needs 'by', found %q", kw)
		}
		n, err := p.number()
		if err != nil {
			return err
		}
		if n != math.Trunc(n) || n < 1 {
			return p.errf("policy delta %g must be a positive integer", n)
		}
		pol.Delta = int(n)
		if p.tok.kind != tIdent || p.tok.text != "when" {
			return p.errf("policy needs 'when', found %q", p.tok.text)
		}
		raw, line, col, err := p.rawValue()
		if err != nil {
			return err
		}
		ast, off, perr := expr.ParsePrefix(raw)
		if perr != nil {
			return exprErrAt(perr, line, col)
		}
		prog, perr := expr.CompileAST(ast)
		if perr != nil {
			return exprErrAt(perr, line, col)
		}
		if prog.Kind() != expr.Bool {
			return fmt.Errorf("tbl: line %d:%d: policy when expression must be bool, got %s",
				line, col, prog.Kind())
		}
		pol.WhenExpr = prog.Source()
		// Resume TBL parsing on the span's remainder, seeded with the
		// stop offset's document coordinates so errors point into the file.
		sline, scol := line, col+off
		if i := strings.LastIndexByte(raw[:off], '\n'); i >= 0 {
			sline += strings.Count(raw[:off], "\n")
			scol = off - i
		}
		sub := &parser{lx: &lexer{src: raw[off:], line: sline, lineStart: -(scol - 1)}}
		if err := sub.advance(); err != nil {
			return err
		}
		if sub.tok.kind == tIdent && sub.tok.text == "cooldown" {
			if err := sub.advance(); err != nil {
				return err
			}
			if pol.CooldownSec, err = sub.duration(); err != nil {
				return err
			}
		}
		if sub.tok.kind == tIdent && (sub.tok.text == "max" || sub.tok.text == "min") {
			bound := sub.tok.text
			if bound == "max" && pol.In {
				return sub.errf("scale-in policies floor with 'min', not 'max'")
			}
			if bound == "min" && !pol.In {
				return sub.errf("scale-out policies cap with 'max', not 'min'")
			}
			if err := sub.advance(); err != nil {
				return err
			}
			v, err := sub.number()
			if err != nil {
				return err
			}
			if v != math.Trunc(v) || v < 1 {
				return sub.errf("policy %s bound %g must be a positive integer", bound, v)
			}
			if bound == "max" {
				pol.Max = int(v)
			} else {
				pol.Min = int(v)
			}
		}
		if sub.tok.kind != tEOF {
			return sub.errf("unexpected %q in policy", sub.tok.text)
		}
		e.Policies = append(e.Policies, pol)
	}
	return p.advance()
}

func (p *parser) parseAllocate(e *Experiment) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !(p.tok.kind == tPunct && p.tok.text == "}") {
		tier, err := p.expectIdent()
		if err != nil {
			return err
		}
		nodeType, err := p.expectIdent()
		if err != nil {
			return err
		}
		e.Allocate[tier] = nodeType
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return p.advance()
}
