package pdi

import (
	"fmt"
	"strconv"
	"unicode"
)

// EvalExpr evaluates a deisa configuration expression against a metadata
// context. The grammar covers what Listing 1 of the paper uses:
//
//	expr   := term (('+'|'-') term)*
//	term   := unary (('*'|'/'|'%') unary)*
//	unary  := '-' unary | primary
//	primary:= number | '$' ref | '(' expr ')'
//	ref    := ident ('.' ident | '[' expr ']')*
//
// Integer arithmetic is used while both operands are integers; division
// of integers is integer division (matching the paper's '$rank /
// $cfg.proc[0]' usage). Any float operand promotes the expression to
// floating point.
func EvalExpr(expr string, ctx map[string]any) (any, error) {
	p := &exprParser{src: expr, ctx: ctx}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("pdi: trailing input %q in expression %q", p.src[p.pos:], expr)
	}
	return v, nil
}

// EvalInt evaluates an expression and coerces the result to int.
func EvalInt(expr string, ctx map[string]any) (int, error) {
	v, err := EvalExpr(expr, ctx)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case int64:
		return int(x), nil
	case float64:
		return int(x), nil
	}
	return 0, fmt.Errorf("pdi: expression %q evaluated to non-numeric %T", expr, v)
}

// EvalValue evaluates a YAML scalar that may be a literal or an
// expression: strings are evaluated as expressions, numbers pass through.
func EvalValue(v any, ctx map[string]any) (any, error) {
	switch x := v.(type) {
	case string:
		return EvalExpr(x, ctx)
	case int64, float64, bool, nil:
		return x, nil
	case int:
		return int64(x), nil
	default:
		return nil, fmt.Errorf("pdi: cannot evaluate %T as an expression", v)
	}
}

type exprParser struct {
	src string
	pos int
	ctx map[string]any
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *exprParser) parseExpr() (any, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		op := p.peek()
		if op != '+' && op != '-' {
			return left, nil
		}
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left, err = apply(op, left, right)
		if err != nil {
			return nil, err
		}
	}
}

func (p *exprParser) parseTerm() (any, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		op := p.peek()
		if op != '*' && op != '/' && op != '%' {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left, err = apply(op, left, right)
		if err != nil {
			return nil, err
		}
	}
}

func (p *exprParser) parseUnary() (any, error) {
	p.skipSpace()
	if p.peek() == '-' {
		p.pos++
		v, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return apply('-', int64(0), v)
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (any, error) {
	p.skipSpace()
	switch {
	case p.peek() == '(':
		p.pos++
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("pdi: missing ')' in expression %q", p.src)
		}
		p.pos++
		return v, nil
	case p.peek() == '$':
		p.pos++
		return p.parseRef()
	case p.pos < len(p.src) && (unicode.IsDigit(rune(p.src[p.pos])) || p.src[p.pos] == '.'):
		start := p.pos
		for p.pos < len(p.src) && (unicode.IsDigit(rune(p.src[p.pos])) || p.src[p.pos] == '.' ||
			p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
			p.pos++
		}
		lit := p.src[start:p.pos]
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return i, nil
		}
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return nil, fmt.Errorf("pdi: bad numeric literal %q", lit)
		}
		return f, nil
	}
	return nil, fmt.Errorf("pdi: unexpected character %q in expression %q", string(p.peek()), p.src)
}

func (p *exprParser) parseRef() (any, error) {
	name := p.parseIdent()
	if name == "" {
		return nil, fmt.Errorf("pdi: expected identifier after '$' in %q", p.src)
	}
	cur, ok := p.ctx[name]
	if !ok {
		return nil, fmt.Errorf("pdi: unknown metadata %q", name)
	}
	for {
		switch p.peek() {
		case '.':
			p.pos++
			field := p.parseIdent()
			if field == "" {
				return nil, fmt.Errorf("pdi: expected field name after '.' in %q", p.src)
			}
			m, ok := cur.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("pdi: cannot access field %q of %T", field, cur)
			}
			cur, ok = m[field]
			if !ok {
				return nil, fmt.Errorf("pdi: no field %q", field)
			}
		case '[':
			p.pos++
			idxV, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.peek() != ']' {
				return nil, fmt.Errorf("pdi: missing ']' in %q", p.src)
			}
			p.pos++
			idx, ok := toInt(idxV)
			if !ok {
				return nil, fmt.Errorf("pdi: non-integer index %v", idxV)
			}
			cur2, err := indexValue(cur, idx)
			if err != nil {
				return nil, err
			}
			cur = cur2
		default:
			return cur, nil
		}
	}
}

func (p *exprParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func indexValue(v any, i int) (any, error) {
	switch xs := v.(type) {
	case []any:
		if i < 0 || i >= len(xs) {
			return nil, fmt.Errorf("pdi: index %d out of range [0,%d)", i, len(xs))
		}
		return xs[i], nil
	case []int:
		if i < 0 || i >= len(xs) {
			return nil, fmt.Errorf("pdi: index %d out of range [0,%d)", i, len(xs))
		}
		return int64(xs[i]), nil
	case []int64:
		if i < 0 || i >= len(xs) {
			return nil, fmt.Errorf("pdi: index %d out of range [0,%d)", i, len(xs))
		}
		return xs[i], nil
	case []float64:
		if i < 0 || i >= len(xs) {
			return nil, fmt.Errorf("pdi: index %d out of range [0,%d)", i, len(xs))
		}
		return xs[i], nil
	}
	return nil, fmt.Errorf("pdi: cannot index %T", v)
}

func toInt(v any) (int, bool) {
	switch x := v.(type) {
	case int64:
		return int(x), true
	case int:
		return x, true
	case float64:
		if x == float64(int(x)) {
			return int(x), true
		}
	}
	return 0, false
}

func apply(op byte, a, b any) (any, error) {
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		switch op {
		case '+':
			return ai + bi, nil
		case '-':
			return ai - bi, nil
		case '*':
			return ai * bi, nil
		case '/':
			if bi == 0 {
				return nil, fmt.Errorf("pdi: division by zero")
			}
			return ai / bi, nil
		case '%':
			if bi == 0 {
				return nil, fmt.Errorf("pdi: modulo by zero")
			}
			return ai % bi, nil
		}
	}
	af, err := toFloat(a)
	if err != nil {
		return nil, err
	}
	bf, err := toFloat(b)
	if err != nil {
		return nil, err
	}
	switch op {
	case '+':
		return af + bf, nil
	case '-':
		return af - bf, nil
	case '*':
		return af * bf, nil
	case '/':
		if bf == 0 {
			return nil, fmt.Errorf("pdi: division by zero")
		}
		return af / bf, nil
	case '%':
		return nil, fmt.Errorf("pdi: modulo requires integer operands")
	}
	return nil, fmt.Errorf("pdi: unknown operator %q", string(op))
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	}
	return 0, fmt.Errorf("pdi: non-numeric operand %T (%v)", v, v)
}
