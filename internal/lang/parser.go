package lang

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
)

// maxStatements caps what loops may unroll a program to. Without it a
// 40-byte loop makes Parse allocate billions of statements, and nesting
// multiplies; the largest committed workload unrolls to a few hundred.
const maxStatements = 1 << 16

// maxExprTokens caps a right-hand side's length in tokens, and with it
// the expression's node count, its nesting depth (every pass over it
// recurses that deep) and the length of a product chain, which the
// planner's chain-order dynamic program prices in cubic time: a chain of
// 2 000 factors, 8 kB of text, took 10 s to compile. No committed
// program has a right-hand side of more than 27 tokens, rendered.
const maxExprTokens = 512

// Parse reads a program in the textual front-end syntax:
//
//	input V 10000 5000 sparse
//	input W 10000 10
//	input H 10 5000
//	for i in 1:20 {
//	  H = H .* (W' * V) ./ ((W' * W) * H)
//	  W = W .* (V * H') ./ (W * (H * H'))
//	}
//	output H
//
// Iteration counts are literal: `for` loops unroll at parse time (Cumulon
// optimizes and executes whole iterative programs as one plan), to at most
// maxStatements statements. Loops may nest; the loop variable is purely a
// counter and is not substitutable into expressions. A bare `checkpoint`
// line marks an iteration boundary for program-level checkpointing; inside
// a loop it unrolls into one boundary per iteration.
//
// Grammar (expressions, by precedence, loosest first):
//
//	expr   := term (('+'|'-') term)*
//	term   := factor (('*'|'.*'|'./') factor)*
//	factor := number '*' factor | number | primary
//	primary:= ident '(' expr ')' | ident | '(' expr ')' ; postfix '
//
// A number in factor position denotes scalar multiplication (e.g.
// "0.5 * A"); bare numbers are only valid in that position. A right-hand
// side has at most maxExprTokens tokens.
func Parse(src string) (*Program, error) {
	p := &Program{}
	// loopStack holds the items being accumulated by enclosing for loops,
	// innermost last; each entry remembers its repeat count. An item is
	// either an assignment or a checkpoint marker, so markers survive
	// unrolling (one boundary per unrolled iteration).
	type item struct {
		st   Assign
		mark bool
	}
	type frame struct {
		count int
		items []item
	}
	var stack []*frame
	emit := func(it item) {
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			top.items = append(top.items, it)
			return
		}
		if it.mark {
			// Adjacent markers collapse: a boundary is a position, not an
			// instruction, so repeating it is a no-op.
			if n := len(p.Boundaries); n == 0 || p.Boundaries[n-1] != len(p.Stmts) {
				p.Boundaries = append(p.Boundaries, len(p.Stmts))
			}
			return
		}
		p.Stmts = append(p.Stmts, it.st)
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "program "):
			p.Name = strings.TrimSpace(strings.TrimPrefix(line, "program "))
		case strings.HasPrefix(line, "input "):
			if len(stack) > 0 {
				return nil, fmt.Errorf("lang: line %d: input declarations cannot appear inside loops", lineNo+1)
			}
			in, err := parseInput(line)
			if err != nil {
				return nil, fmt.Errorf("lang: line %d: %w", lineNo+1, err)
			}
			p.Inputs = append(p.Inputs, in)
		case strings.HasPrefix(line, "output "):
			if len(stack) > 0 {
				return nil, fmt.Errorf("lang: line %d: outputs cannot appear inside loops", lineNo+1)
			}
			name := strings.TrimSpace(strings.TrimPrefix(line, "output "))
			if !isIdent(name) {
				return nil, fmt.Errorf("lang: line %d: bad output name %q", lineNo+1, name)
			}
			p.Outputs = append(p.Outputs, name)
		case strings.HasPrefix(line, "for "):
			count, err := parseForHeader(line)
			if err != nil {
				return nil, fmt.Errorf("lang: line %d: %w", lineNo+1, err)
			}
			stack = append(stack, &frame{count: count})
		case line == "checkpoint":
			emit(item{mark: true})
		case line == "}":
			if len(stack) == 0 {
				return nil, fmt.Errorf("lang: line %d: unmatched '}'", lineNo+1)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(top.items) == 0 {
				continue
			}
			// Checked before expanding, by division: the product can
			// overflow.
			have := len(p.Stmts)
			if len(stack) > 0 {
				have = len(stack[len(stack)-1].items)
			}
			if top.count > (maxStatements-have)/len(top.items) {
				return nil, fmt.Errorf("lang: line %d: loop unrolls to %d x %d statements on top of %d, over the limit of %d",
					lineNo+1, top.count, len(top.items), have, maxStatements)
			}
			for i := 0; i < top.count; i++ {
				for _, it := range top.items {
					emit(it)
				}
			}
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("lang: line %d: expected assignment, got %q", lineNo+1, line)
			}
			name := strings.TrimSpace(line[:eq])
			if !isIdent(name) {
				return nil, fmt.Errorf("lang: line %d: bad variable name %q", lineNo+1, name)
			}
			expr, err := ParseExpr(line[eq+1:])
			if err != nil {
				return nil, fmt.Errorf("lang: line %d: %w", lineNo+1, err)
			}
			emit(item{st: Assign{Name: name, Expr: expr}})
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("lang: unclosed for loop")
	}
	return p, nil
}

// parseForHeader parses `for <ident> in <lo>:<hi> {` and returns the
// iteration count (hi - lo + 1).
func parseForHeader(line string) (int, error) {
	body := strings.TrimSpace(strings.TrimPrefix(line, "for "))
	if !strings.HasSuffix(body, "{") {
		return 0, fmt.Errorf("for loop must end with '{'")
	}
	body = strings.TrimSpace(strings.TrimSuffix(body, "{"))
	parts := strings.Fields(body)
	if len(parts) != 3 || parts[1] != "in" || !isIdent(parts[0]) {
		return 0, fmt.Errorf("for loop wants: for VAR in LO:HI {")
	}
	bounds := strings.SplitN(parts[2], ":", 2)
	if len(bounds) != 2 {
		return 0, fmt.Errorf("for loop range wants LO:HI, got %q", parts[2])
	}
	lo, err := strconv.Atoi(bounds[0])
	if err != nil {
		return 0, fmt.Errorf("bad loop lower bound %q", bounds[0])
	}
	hi, err := strconv.Atoi(bounds[1])
	if err != nil {
		return 0, fmt.Errorf("bad loop upper bound %q", bounds[1])
	}
	if hi < lo {
		return 0, fmt.Errorf("empty loop range %d:%d", lo, hi)
	}
	count := hi - lo + 1
	if count <= 0 {
		return 0, fmt.Errorf("loop range %d:%d overflows", lo, hi)
	}
	return count, nil
}

func parseInput(line string) (Input, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 && len(fields) != 5 {
		return Input{}, fmt.Errorf("input wants: input NAME ROWS COLS [sparse]")
	}
	name := fields[1]
	if !isIdent(name) {
		return Input{}, fmt.Errorf("bad input name %q", name)
	}
	rows, err := strconv.Atoi(fields[2])
	if err != nil {
		return Input{}, fmt.Errorf("bad rows %q", fields[2])
	}
	cols, err := strconv.Atoi(fields[3])
	if err != nil {
		return Input{}, fmt.Errorf("bad cols %q", fields[3])
	}
	in := Input{Name: name, Rows: rows, Cols: cols}
	if len(fields) == 5 {
		if fields[4] != "sparse" {
			return Input{}, fmt.Errorf("unknown input modifier %q", fields[4])
		}
		in.Sparse = true
	}
	return in, nil
}

// ParseFile parses the program in the named file, or on stdin when path
// is empty.
func ParseFile(path string) (*Program, error) {
	var src []byte
	var err error
	if path == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return Parse(string(src))
}

// ParseExpr parses a single matrix expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	pr := &exprParser{toks: toks}
	e, err := pr.parseExpr()
	if err != nil {
		return nil, err
	}
	if pr.pos != len(pr.toks) {
		return nil, fmt.Errorf("unexpected trailing token %q", pr.toks[pr.pos].text)
	}
	return e, nil
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokOp // + - * .* ./ ' ( )
)

type token struct {
	kind tokKind
	text string
}

func tokenize(src string) ([]token, error) {
	var toks []token
	i := 0
	rs := []rune(src)
	for i < len(rs) && len(toks) <= maxExprTokens {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '+' || r == '-' || r == '*' || r == '\'' || r == '(' || r == ')' || r == ',':
			toks = append(toks, token{tokOp, string(r)})
			i++
		case r == '.':
			if i+1 < len(rs) && (rs[i+1] == '*' || rs[i+1] == '/') {
				toks = append(toks, token{tokOp, string(rs[i : i+2])})
				i += 2
			} else if i+1 < len(rs) && unicode.IsDigit(rs[i+1]) {
				j := i
				i++
				for i < len(rs) && (unicode.IsDigit(rs[i]) || rs[i] == 'e' || rs[i] == 'E') {
					i++
				}
				toks = append(toks, token{tokNumber, string(rs[j:i])})
			} else {
				return nil, fmt.Errorf("stray '.' at position %d", i)
			}
		case unicode.IsDigit(r):
			j := i
			for i < len(rs) && (unicode.IsDigit(rs[i]) || rs[i] == '.' || rs[i] == 'e' || rs[i] == 'E' ||
				((rs[i] == '+' || rs[i] == '-') && (rs[i-1] == 'e' || rs[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{tokNumber, string(rs[j:i])})
		case unicode.IsLetter(r) || r == '_':
			j := i
			for i < len(rs) && (unicode.IsLetter(rs[i]) || unicode.IsDigit(rs[i]) || rs[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, string(rs[j:i])})
		default:
			return nil, fmt.Errorf("unexpected character %q", string(r))
		}
	}
	if len(toks) > maxExprTokens {
		return nil, fmt.Errorf("expression is over the limit of %d tokens", maxExprTokens)
	}
	return toks, nil
}

type exprParser struct {
	toks []token
	pos  int
}

func (p *exprParser) peek() (token, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return token{}, false
}

func (p *exprParser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.elemOp(false)
		if !ok {
			return left, nil
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = Elem{Op: op, L: left, R: right}
	}
}

func (p *exprParser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op ElemOp
		matmul := false
		if t, ok := p.peek(); ok && t.kind == tokOp && t.text == "*" {
			p.pos++
			matmul = true
		} else if op, ok = p.elemOp(true); !ok {
			return left, nil
		}
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if matmul {
			left = MatMul{L: left, R: right}
		} else {
			left = Elem{Op: op, L: left, R: right}
		}
	}
}

// elemOp consumes the next token when it is an element-wise operator that
// binds like '*' (term) or like '+' (!term).
func (p *exprParser) elemOp(term bool) (ElemOp, bool) {
	if t, ok := p.peek(); ok && t.kind == tokOp {
		for op, o := range elemOps {
			if o.sym == t.text && o.term == term {
				p.pos++
				return ElemOp(op), true
			}
		}
	}
	return 0, false
}

func (p *exprParser) parseFactor() (Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of expression")
	}
	if t.kind == tokNumber {
		s, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		p.pos++
		nxt, ok := p.peek()
		if !ok || nxt.kind != tokOp || nxt.text != "*" {
			return nil, fmt.Errorf("scalar %v must be followed by '*'", s)
		}
		p.pos++
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Scale{S: s, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of expression")
	}
	var e Expr
	switch {
	case t.kind == tokOp && t.text == "(":
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		e = inner
	case t.kind == tokIdent:
		p.pos++
		if nxt, ok := p.peek(); ok && nxt.kind == tokOp && nxt.text == "(" {
			if t.text == "mask" {
				p.pos++
				pattern, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(","); err != nil {
					return nil, err
				}
				value, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				e = Mask{P: pattern, X: value}
				break
			}
			if _, isFn := Funcs[t.text]; !isFn {
				return nil, fmt.Errorf("unknown function %q", t.text)
			}
			p.pos++
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			e = Apply{Fn: t.text, X: arg}
		} else {
			e = Var{Name: t.text}
		}
	default:
		return nil, fmt.Errorf("unexpected token %q", t.text)
	}
	// Postfix transpose, possibly repeated (A'' is legal and is A).
	for {
		t, ok := p.peek()
		if !ok || t.kind != tokOp || t.text != "'" {
			return e, nil
		}
		p.pos++
		e = Transpose{X: e}
	}
}

func (p *exprParser) expect(text string) error {
	t, ok := p.peek()
	if !ok || t.text != text {
		return fmt.Errorf("expected %q", text)
	}
	p.pos++
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if unicode.IsLetter(r) || r == '_' || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}
