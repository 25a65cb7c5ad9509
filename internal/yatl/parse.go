package yatl

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// Parse reads a full YATL program: an optional `program NAME` header
// followed by any number of `model`, `order` and `rule` blocks.
func Parse(src string) (*Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: "anonymous"}
	if p.atKeyword("program") {
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		prog.Name = name
	}
	for p.tok().kind != tEOF {
		switch {
		case p.atKeyword("model"):
			decl, err := p.parseModelDecl()
			if err != nil {
				return nil, err
			}
			prog.Models = append(prog.Models, decl)
		case p.atKeyword("rule"):
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			prog.Rules = append(prog.Rules, r)
		case p.atKeyword("order"):
			o, err := p.parseOrder()
			if err != nil {
				return nil, err
			}
			prog.Orders = append(prog.Orders, o)
		default:
			return nil, p.errorf("expected model, rule or order, found %q", p.tok().text)
		}
	}
	return prog, nil
}

// MustParse is Parse that panics on error; for fixtures and tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseRule reads a single `rule NAME { ... }` block.
func ParseRule(src string) (*Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("rule") {
		return nil, p.errorf("expected rule, found %q", p.tok().text)
	}
	r, err := p.parseRule()
	if err != nil {
		return nil, err
	}
	if p.tok().kind != tEOF {
		return nil, p.errorf("trailing input after rule: %q", p.tok().text)
	}
	return r, nil
}

// MustParseRule is ParseRule that panics on error.
func MustParseRule(src string) *Rule {
	r, err := ParseRule(src)
	if err != nil {
		panic(err)
	}
	return r
}

// ParsePattern reads a single pattern tree.
func ParsePattern(src string) (*pattern.PTree, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	t, err := p.parsePTree()
	if err != nil {
		return nil, err
	}
	if p.tok().kind != tEOF {
		return nil, p.errorf("trailing input after pattern: %q", p.tok().text)
	}
	return t, nil
}

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(src string) *pattern.PTree {
	t, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseModel reads a single `model NAME { ... }` block and returns
// its name and patterns.
func ParseModel(src string) (string, *pattern.Model, error) {
	p, err := newParser(src)
	if err != nil {
		return "", nil, err
	}
	if !p.atKeyword("model") {
		return "", nil, p.errorf("expected model, found %q", p.tok().text)
	}
	decl, err := p.parseModelDecl()
	if err != nil {
		return "", nil, err
	}
	if p.tok().kind != tEOF {
		return "", nil, p.errorf("trailing input after model: %q", p.tok().text)
	}
	return decl.Name, decl.Model, nil
}

// --- parser machinery ---------------------------------------------------

// ParseError is a YATL syntax error carrying the source position of
// the offending token, so tools (yatcheck, yatc) can point at the
// exact location instead of echoing only the token text.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error renders the error as "yatl: line:col: msg".
func (e *ParseError) Error() string {
	if !e.Pos.IsValid() {
		return "yatl: " + e.Msg
	}
	return fmt.Sprintf("yatl: %s: %s", e.Pos, e.Msg)
}

type parser struct {
	toks []token
	pos  int
}

func newParser(src string) (*parser, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) tok() token { return p.toks[p.pos] }

func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.at(), Msg: fmt.Sprintf(format, args...)}
}

// at returns the source position of the current token.
func (p *parser) at() Pos {
	t := p.tok()
	return Pos{Line: t.line, Col: t.col}
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok().kind != k {
		return token{}, p.errorf("expected %s, found %q", k, p.tok().text)
	}
	return p.next(), nil
}

func (p *parser) expectIdent() (string, error) {
	t, err := p.expect(tIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok().kind == tIdent && p.tok().text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %q, found %q", kw, p.tok().text)
	}
	p.next()
	return nil
}

// isUpper reports whether the identifier denotes a variable (the
// paper's convention: variables start with an upper-case letter).
func isUpper(ident string) bool {
	r, _ := utf8.DecodeRuneInString(ident)
	return unicode.IsUpper(r)
}

var kindKeywords = map[string]tree.Kind{
	"string": tree.KindString,
	"int":    tree.KindInt,
	"float":  tree.KindFloat,
	"bool":   tree.KindBool,
	"symbol": tree.KindSymbol,
}

// --- grammar ------------------------------------------------------------

func (p *parser) parseOrder() (Order, error) {
	if err := p.expectKeyword("order"); err != nil {
		return Order{}, err
	}
	pos := p.at()
	before, err := p.expectIdent()
	if err != nil {
		return Order{}, err
	}
	if err := p.expectKeyword("before"); err != nil {
		return Order{}, err
	}
	after, err := p.expectIdent()
	if err != nil {
		return Order{}, err
	}
	return Order{Before: before, After: after, Pos: pos}, nil
}

func (p *parser) parseModelDecl() (*ModelDecl, error) {
	if err := p.expectKeyword("model"); err != nil {
		return nil, err
	}
	pos := p.at()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	m := pattern.NewModel()
	for p.tok().kind != tRBrace {
		patName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tEq); err != nil {
			return nil, err
		}
		var union []*pattern.PTree
		for {
			t, err := p.parsePTree()
			if err != nil {
				return nil, err
			}
			union = append(union, t)
			if p.tok().kind == tPipe {
				p.next()
				continue
			}
			break
		}
		m.Add(pattern.NewPattern(patName, union...))
	}
	p.next() // consume }
	return &ModelDecl{Name: name, Model: m, Pos: pos}, nil
}

func (p *parser) parseRule() (*Rule, error) {
	if err := p.expectKeyword("rule"); err != nil {
		return nil, err
	}
	rulePos := p.at()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	r := &Rule{Name: name, Pos: rulePos}
	sawHead := false
	for p.tok().kind != tRBrace {
		switch {
		case p.atKeyword("head"):
			if sawHead {
				return nil, p.errorf("rule %s has more than one head", name)
			}
			sawHead = true
			p.next()
			headPos := p.at()
			functor, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			var args []pattern.Arg
			if p.tok().kind == tLParen {
				args, err = p.parseArgs()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tEq); err != nil {
				return nil, err
			}
			t, err := p.parsePTree()
			if err != nil {
				return nil, err
			}
			r.Head = Head{Functor: functor, Args: args, Tree: t, Pos: headPos}
		case p.atKeyword("exception"):
			if sawHead {
				return nil, p.errorf("rule %s has both head and exception", name)
			}
			sawHead = true
			p.next()
			r.Exception = true
		case p.atKeyword("from"):
			p.next()
			fromPos := p.at()
			v, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			bp := BodyPattern{Var: v, Pos: fromPos}
			if p.tok().kind == tColon {
				p.next()
				dom, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				bp.Domain = dom
			}
			if _, err := p.expect(tEq); err != nil {
				return nil, err
			}
			t, err := p.parsePTree()
			if err != nil {
				return nil, err
			}
			bp.Tree = t
			r.Body = append(r.Body, bp)
		case p.atKeyword("where"):
			p.next()
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			r.Preds = append(r.Preds, pred)
		case p.atKeyword("let"):
			p.next()
			letPos := p.at()
			v, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tEq); err != nil {
				return nil, err
			}
			fn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ops, err := p.parseOperands()
			if err != nil {
				return nil, err
			}
			r.Lets = append(r.Lets, Let{Var: v, Func: fn, Args: ops, Pos: letPos})
		default:
			return nil, p.errorf("expected head, exception, from, where or let; found %q", p.tok().text)
		}
	}
	p.next() // consume }
	if !sawHead {
		return nil, &ParseError{Pos: rulePos, Msg: fmt.Sprintf("rule %s has no head", name)}
	}
	if len(r.Body) == 0 {
		return nil, &ParseError{Pos: rulePos, Msg: fmt.Sprintf("rule %s has no body pattern", name)}
	}
	return r, nil
}

func (p *parser) parsePred() (Pred, error) {
	pos := p.at()
	// Call form: ident '(' ... ')'.
	if p.tok().kind == tIdent && p.peek().kind == tLParen && !isUpper(p.tok().text) {
		fn := p.next().text
		ops, err := p.parseOperands()
		if err != nil {
			return Pred{}, err
		}
		return Pred{Call: fn, Args: ops, Pos: pos}, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return Pred{}, err
	}
	var op CmpOp
	switch p.tok().kind {
	case tEqEq:
		op = OpEq
	case tBangEq:
		op = OpNe
	case tLAngle:
		op = OpLt
	case tLtEq:
		op = OpLe
	case tRAngle:
		op = OpGt
	case tGtEq:
		op = OpGe
	default:
		return Pred{}, p.errorf("expected comparison operator, found %q", p.tok().text)
	}
	p.next()
	right, err := p.parseOperand()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Left: left, Op: op, Right: right, Pos: pos}, nil
}

func (p *parser) parseOperands() ([]Operand, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var out []Operand
	if p.tok().kind != tRParen {
		for {
			o, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			out = append(out, o)
			if p.tok().kind == tComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseOperand() (Operand, error) {
	switch p.tok().kind {
	case tIdent:
		text := p.next().text
		switch text {
		case "true":
			return ConstOperand(tree.Bool(true)), nil
		case "false":
			return ConstOperand(tree.Bool(false)), nil
		}
		if isUpper(text) {
			return VarOperand(text), nil
		}
		return ConstOperand(tree.Symbol(text)), nil
	case tString:
		s, err := strconv.Unquote(p.tok().text)
		if err != nil {
			return Operand{}, p.errorf("bad string literal %s", p.tok().text)
		}
		p.next()
		return ConstOperand(tree.String(s)), nil
	case tInt:
		i, err := strconv.ParseInt(p.tok().text, 10, 64)
		if err != nil {
			return Operand{}, p.errorf("bad integer %s", p.tok().text)
		}
		p.next()
		return ConstOperand(tree.Int(i)), nil
	case tFloat:
		f, err := strconv.ParseFloat(p.tok().text, 64)
		if err != nil {
			return Operand{}, p.errorf("bad float %s", p.tok().text)
		}
		p.next()
		return ConstOperand(tree.Float(f)), nil
	default:
		return Operand{}, p.errorf("expected operand, found %q", p.tok().text)
	}
}

func (p *parser) parseArgs() ([]pattern.Arg, error) {
	ops, err := p.parseOperands()
	if err != nil {
		return nil, err
	}
	args := make([]pattern.Arg, len(ops))
	for i, o := range ops {
		if o.IsVar {
			args[i] = pattern.VarArg(o.Var)
		} else {
			args[i] = pattern.ConstArg(o.Const)
		}
	}
	return args, nil
}

// parsePTree parses a pattern tree: a label followed by either an
// arrow chain (single edge) or a bracketed edge list.
func (p *parser) parsePTree() (*pattern.PTree, error) {
	node, err := p.parseLabelNode()
	if err != nil {
		return nil, err
	}
	switch p.tok().kind {
	case tLAngle:
		p.next()
		for {
			e, err := p.parseEdge()
			if err != nil {
				return nil, err
			}
			node.Edges = append(node.Edges, e)
			if p.tok().kind == tComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRAngle); err != nil {
			return nil, err
		}
	case tArrowOne, tArrowStar, tArrowGroup, tOrderOpen, tIndexOpen:
		e, err := p.parseEdge()
		if err != nil {
			return nil, err
		}
		node.Edges = append(node.Edges, e)
	}
	return node, nil
}

func (p *parser) parseEdge() (pattern.Edge, error) {
	pos := p.at()
	e, err := p.parseEdgeArrow()
	if err != nil {
		return e, err
	}
	e.Pos = pos
	return e, nil
}

func (p *parser) parseEdgeArrow() (pattern.Edge, error) {
	switch p.tok().kind {
	case tArrowOne:
		p.next()
		t, err := p.parsePTree()
		if err != nil {
			return pattern.Edge{}, err
		}
		return pattern.One(t), nil
	case tArrowStar:
		p.next()
		t, err := p.parsePTree()
		if err != nil {
			return pattern.Edge{}, err
		}
		return pattern.Star(t), nil
	case tArrowGroup:
		p.next()
		t, err := p.parsePTree()
		if err != nil {
			return pattern.Edge{}, err
		}
		return pattern.Group(t), nil
	case tOrderOpen:
		p.next()
		var crit []string
		for {
			v, err := p.expectIdent()
			if err != nil {
				return pattern.Edge{}, err
			}
			crit = append(crit, v)
			if p.tok().kind == tComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tOrderClose); err != nil {
			return pattern.Edge{}, err
		}
		t, err := p.parsePTree()
		if err != nil {
			return pattern.Edge{}, err
		}
		return pattern.Ordered(t, crit...), nil
	case tIndexOpen:
		p.next()
		v, err := p.expectIdent()
		if err != nil {
			return pattern.Edge{}, err
		}
		if _, err := p.expect(tRAngle); err != nil {
			return pattern.Edge{}, err
		}
		t, err := p.parsePTree()
		if err != nil {
			return pattern.Edge{}, err
		}
		return pattern.Index(v, t), nil
	default:
		return pattern.Edge{}, p.errorf("expected edge arrow, found %q", p.tok().text)
	}
}

func (p *parser) parseLabelNode() (*pattern.PTree, error) {
	pos := p.at()
	node, err := p.parseLabelNodeAt()
	if err != nil {
		return nil, err
	}
	node.Pos = pos
	return node, nil
}

func (p *parser) parseLabelNodeAt() (*pattern.PTree, error) {
	switch p.tok().kind {
	case tCaret, tAmp:
		isRef := p.tok().kind == tAmp
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var args []pattern.Arg
		if p.tok().kind == tLParen {
			args, err = p.parseArgs()
			if err != nil {
				return nil, err
			}
		}
		return pattern.NewPatRef(name, isRef, args...), nil
	case tString:
		s, err := strconv.Unquote(p.tok().text)
		if err != nil {
			return nil, p.errorf("bad string literal %s", p.tok().text)
		}
		p.next()
		return pattern.NewConst(tree.String(s)), nil
	case tInt:
		i, err := strconv.ParseInt(p.tok().text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %s", p.tok().text)
		}
		p.next()
		return pattern.NewConst(tree.Int(i)), nil
	case tFloat:
		f, err := strconv.ParseFloat(p.tok().text, 64)
		if err != nil {
			return nil, p.errorf("bad float %s", p.tok().text)
		}
		p.next()
		return pattern.NewConst(tree.Float(f)), nil
	case tIdent:
		text := p.next().text
		switch text {
		case "true":
			return pattern.NewConst(tree.Bool(true)), nil
		case "false":
			return pattern.NewConst(tree.Bool(false)), nil
		}
		if !isUpper(text) {
			return pattern.NewSym(text), nil
		}
		v := pattern.Var{Name: text, Domain: pattern.AnyDomain}
		if p.tok().kind == tColon {
			p.next()
			dom, err := p.parseDomain()
			if err != nil {
				return nil, err
			}
			v.Domain = dom
		}
		return &pattern.PTree{Label: v}, nil
	default:
		return nil, p.errorf("expected pattern label, found %q", p.tok().text)
	}
}

// parseDomain parses a variable domain: a union of kind keywords
// (string|int|float|bool|symbol), a parenthesized symbol set
// ((set|bag)), a pattern name (upper-case identifier), a reference
// domain (&P), or `any`.
func (p *parser) parseDomain() (pattern.Domain, error) {
	if p.tok().kind == tAmp {
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return pattern.Domain{}, err
		}
		return pattern.RefDomain(name), nil
	}
	if p.tok().kind == tLParen {
		p.next()
		var syms []string
		for {
			s, err := p.expectIdent()
			if err != nil {
				return pattern.Domain{}, err
			}
			syms = append(syms, s)
			if p.tok().kind == tPipe {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRParen); err != nil {
			return pattern.Domain{}, err
		}
		return pattern.SymbolDomain(syms...), nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return pattern.Domain{}, err
	}
	if name == "any" {
		return pattern.AnyDomain, nil
	}
	if isUpper(name) {
		return pattern.PatternDomain(name), nil
	}
	kind, ok := kindKeywords[name]
	if !ok {
		return pattern.Domain{}, p.errorf("unknown domain %q", name)
	}
	kinds := []tree.Kind{kind}
	// Consume further `| kind` parts only when the token after the
	// pipe is a kind keyword; otherwise the pipe belongs to a pattern
	// union at an outer level.
	for p.tok().kind == tPipe && p.peek().kind == tIdent {
		if _, isKind := kindKeywords[p.peek().text]; !isKind {
			break
		}
		p.next()
		k := kindKeywords[p.next().text]
		kinds = append(kinds, k)
	}
	return pattern.KindDomain(kinds...), nil
}
