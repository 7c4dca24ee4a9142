// Package cim implements the subset of the DMTF Common Information Model
// (CIM) and its Managed Object Format (MOF) syntax that Elba uses to
// describe hardware and software resources. The paper feeds CIM/MOF
// specifications to the Mulini generator (§II); this package provides the
// MOF parser, a class/instance repository with inheritance, and the
// built-in catalog of the paper's three experimental platforms (Table 2)
// and software stacks (Table 1).
package cim

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies MOF lexemes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct
)

type token struct {
	kind tokenKind
	text string
	line int
}

// lexer splits MOF source into tokens, skipping // and /* */ comments.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("mof: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf("unterminated block comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return l.scan()
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) scan() (token, error) {
	c := l.src[l.pos]
	start := l.pos
	switch {
	case c == '"':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				default:
					return token{}, l.errf("unknown escape \\%c", l.src[l.pos])
				}
				l.pos++
				continue
			}
			if ch == '"' {
				l.pos++
				return token{kind: tokString, text: b.String(), line: l.line}, nil
			}
			if ch == '\n' {
				return token{}, l.errf("newline in string literal")
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{}, l.errf("unterminated string literal")
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case unicode.IsDigit(rune(c)) || c == '-' || c == '+':
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case strings.ContainsRune("{};:=,[]()", rune(c)):
		l.pos++
		return token{kind: tokPunct, text: string(c), line: l.line}, nil
	default:
		return token{}, l.errf("unexpected character %q", c)
	}
}

func isIdentChar(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
}

// Value is a MOF property value: string, int64, float64, bool, or a
// homogeneous []Value array.
type Value struct {
	S     string
	I     int64
	F     float64
	B     bool
	Array []Value
	Kind  ValueKind
}

// ValueKind discriminates Value contents.
type ValueKind int

// Value kinds.
const (
	StringValue ValueKind = iota
	IntValue
	RealValue
	BoolValue
	ArrayValue
)

// String renders the value in MOF syntax.
func (v Value) String() string {
	switch v.Kind {
	case StringValue:
		return strconv.Quote(v.S)
	case IntValue:
		return strconv.FormatInt(v.I, 10)
	case RealValue:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case BoolValue:
		return strconv.FormatBool(v.B)
	case ArrayValue:
		parts := make([]string, len(v.Array))
		for i, e := range v.Array {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "<invalid>"
	}
}

// AsInt coerces numeric values to int64.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case IntValue:
		return v.I, true
	case RealValue:
		return int64(v.F), true
	default:
		return 0, false
	}
}

// Property declares a typed class property, optionally with a default.
type Property struct {
	Name    string
	Type    string // MOF type name: string, uint32, real32, boolean, ...
	Default *Value
}

// Class is a CIM class: a named set of typed properties, optionally
// inheriting from a superclass.
type Class struct {
	Name       string
	Super      string
	Properties []Property
	Line       int
}

// Instance is a CIM instance: property assignments for a class.
type Instance struct {
	Class string
	Props map[string]Value
	Line  int
}

// Get returns the instance's value for name.
func (in *Instance) Get(name string) (Value, bool) {
	v, ok := in.Props[name]
	return v, ok
}

// GetString returns a string property or "".
func (in *Instance) GetString(name string) string {
	if v, ok := in.Props[name]; ok && v.Kind == StringValue {
		return v.S
	}
	return ""
}

// GetInt returns a numeric property as int64 or 0.
func (in *Instance) GetInt(name string) int64 {
	if v, ok := in.Props[name]; ok {
		if i, ok := v.AsInt(); ok {
			return i
		}
	}
	return 0
}

// parser consumes tokens into classes and instances.
type parser struct {
	lx   *lexer
	tok  token
	peek *token
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok, p.peek = *p.peek, nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return fmt.Errorf("mof: line %d: expected %q, found %q", p.tok.line, s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("mof: line %d: expected identifier, found %q", p.tok.line, p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

// Parse reads MOF source and returns its class and instance declarations
// in order of appearance.
func Parse(src string) ([]Class, []Instance, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, nil, err
	}
	var classes []Class
	var instances []Instance
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokIdent {
			return nil, nil, fmt.Errorf("mof: line %d: expected declaration, found %q", p.tok.line, p.tok.text)
		}
		switch p.tok.text {
		case "class":
			c, err := p.parseClass()
			if err != nil {
				return nil, nil, err
			}
			classes = append(classes, c)
		case "instance":
			in, err := p.parseInstance()
			if err != nil {
				return nil, nil, err
			}
			instances = append(instances, in)
		default:
			return nil, nil, fmt.Errorf("mof: line %d: unknown declaration %q", p.tok.line, p.tok.text)
		}
	}
	return classes, instances, nil
}

func (p *parser) parseClass() (Class, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // consume "class"
		return Class{}, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return Class{}, err
	}
	c := Class{Name: name, Line: line}
	if p.tok.kind == tokPunct && p.tok.text == ":" {
		if err := p.advance(); err != nil {
			return Class{}, err
		}
		super, err := p.expectIdent()
		if err != nil {
			return Class{}, err
		}
		c.Super = super
	}
	if err := p.expectPunct("{"); err != nil {
		return Class{}, err
	}
	for !(p.tok.kind == tokPunct && p.tok.text == "}") {
		typ, err := p.expectIdent()
		if err != nil {
			return Class{}, err
		}
		pname, err := p.expectIdent()
		if err != nil {
			return Class{}, err
		}
		// MOF array properties are written "string Tags[];".
		if p.tok.kind == tokPunct && p.tok.text == "[" {
			if err := p.advance(); err != nil {
				return Class{}, err
			}
			if err := p.expectPunct("]"); err != nil {
				return Class{}, err
			}
			typ += "[]"
		}
		prop := Property{Name: pname, Type: typ}
		if p.tok.kind == tokPunct && p.tok.text == "=" {
			if err := p.advance(); err != nil {
				return Class{}, err
			}
			v, err := p.parseValue()
			if err != nil {
				return Class{}, err
			}
			prop.Default = &v
		}
		if err := p.expectPunct(";"); err != nil {
			return Class{}, err
		}
		c.Properties = append(c.Properties, prop)
	}
	if err := p.advance(); err != nil { // consume "}"
		return Class{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return Class{}, err
	}
	return c, nil
}

func (p *parser) parseInstance() (Instance, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // consume "instance"
		return Instance{}, err
	}
	of, err := p.expectIdent()
	if err != nil {
		return Instance{}, err
	}
	if of != "of" {
		return Instance{}, fmt.Errorf("mof: line %d: expected 'of' after 'instance'", line)
	}
	class, err := p.expectIdent()
	if err != nil {
		return Instance{}, err
	}
	if err := p.expectPunct("{"); err != nil {
		return Instance{}, err
	}
	in := Instance{Class: class, Props: map[string]Value{}, Line: line}
	for !(p.tok.kind == tokPunct && p.tok.text == "}") {
		pname, err := p.expectIdent()
		if err != nil {
			return Instance{}, err
		}
		if err := p.expectPunct("="); err != nil {
			return Instance{}, err
		}
		v, err := p.parseValue()
		if err != nil {
			return Instance{}, err
		}
		if err := p.expectPunct(";"); err != nil {
			return Instance{}, err
		}
		if _, dup := in.Props[pname]; dup {
			return Instance{}, fmt.Errorf("mof: line %d: duplicate property %q", line, pname)
		}
		in.Props[pname] = v
	}
	if err := p.advance(); err != nil { // consume "}"
		return Instance{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return Instance{}, err
	}
	return in, nil
}

func (p *parser) parseValue() (Value, error) {
	switch {
	case p.tok.kind == tokString:
		v := Value{Kind: StringValue, S: p.tok.text}
		return v, p.advance()
	case p.tok.kind == tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Value{}, fmt.Errorf("mof: invalid number %q", text)
			}
			return Value{Kind: RealValue, F: f}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("mof: invalid integer %q", text)
		}
		return Value{Kind: IntValue, I: i}, nil
	case p.tok.kind == tokIdent && (p.tok.text == "true" || p.tok.text == "false"):
		v := Value{Kind: BoolValue, B: p.tok.text == "true"}
		return v, p.advance()
	case p.tok.kind == tokPunct && p.tok.text == "{":
		if err := p.advance(); err != nil {
			return Value{}, err
		}
		arr := Value{Kind: ArrayValue}
		for !(p.tok.kind == tokPunct && p.tok.text == "}") {
			e, err := p.parseValue()
			if err != nil {
				return Value{}, err
			}
			arr.Array = append(arr.Array, e)
			if p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return Value{}, err
				}
			}
		}
		return arr, p.advance()
	default:
		return Value{}, fmt.Errorf("mof: line %d: expected value, found %q", p.tok.line, p.tok.text)
	}
}
