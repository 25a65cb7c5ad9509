package tree

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads one ground tree in concrete syntax:
//
//	tree  := value [ '<' tree (',' tree)* '>' ]
//	value := symbol | "string" | int | float | true | false | '&' name
//	name  := symbol [ '(' value (',' value)* ')' ]
//
// Example: class < supplier < name < "VW center" > > >
// The paper's arrow notation `a -> b` is accepted as sugar for a
// single-child bracket: `a < b >`.
func Parse(input string) (*Node, error) {
	p := &groundParser{src: input}
	p.next()
	n, err := p.parseTree()
	if err == nil {
		err = p.atEOF()
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(input string) *Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// ParseStore reads a sequence of named trees:
//
//	entry := name ':' tree
//
// separated by whitespace. Example:
//
//	b1: brochure < number < 1 >, title < "Golf" > >
//	s1: class < supplier >
func ParseStore(input string) (*Store, error) {
	p := &groundParser{src: input}
	p.next()
	store := NewStore()
	for p.tok.kind != gtEOF {
		name, err := p.parseName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(gtColon); err != nil {
			return nil, err
		}
		t, err := p.parseTree()
		if err != nil {
			return nil, err
		}
		store.Put(name, t)
	}
	return store, nil
}

// ParseName reads one name in concrete syntax — a plain symbol or a
// Skolem invocation `functor(arg, ...)` whose arguments may be any
// value, tree-shaped values included. It is the inverse of
// Name.String(): the wire layer uses it to reconstruct answer
// identities from their display form.
func ParseName(input string) (Name, error) {
	p := &groundParser{src: input}
	return p.wholeName()
}

// CheckName reports whether ParseName would read input, with ParseName's
// error when it would not, and builds nothing: the same productions
// run with construction skipped, so it allocates only for an error. A
// federation parent checks the names it forwards without parsing them.
func CheckName(input string) error {
	p := &groundParser{src: input, check: true}
	_, err := p.wholeName()
	return err
}

// ParseValue reads one value in concrete syntax, the inverse of
// Value.Display(): scalars parse as themselves, `&name` as a Ref, and
// bracketed tree syntax as a TreeVal. A leaf tree is indistinguishable
// from its label value in display form, so it parses as the bare
// value — which displays identically, keeping the round trip
// byte-stable.
func ParseValue(input string) (Value, error) {
	p := &groundParser{src: input}
	return p.wholeValue()
}

// CheckValue is CheckName for ParseValue.
func CheckValue(input string) error {
	p := &groundParser{src: input, check: true}
	_, err := p.wholeValue()
	return err
}

// wholeName reads the whole input as one name.
func (p *groundParser) wholeName() (Name, error) {
	p.next()
	n, err := p.parseName()
	if err == nil {
		err = p.atEOF()
	}
	if err != nil {
		return Name{}, err
	}
	return n, nil
}

// wholeValue reads the whole input as one value.
func (p *groundParser) wholeValue() (Value, error) {
	p.next()
	v, err := p.parseValueOrTree()
	if err == nil {
		err = p.atEOF()
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (p *groundParser) atEOF() error {
	if p.tok.kind != gtEOF {
		return p.errorf("unexpected trailing input %q", p.tok.text)
	}
	return nil
}

// FormatStore renders a store in the syntax accepted by ParseStore.
func FormatStore(s *Store) string { return FormatEntries(s.Entries()) }

// FormatEntries renders entries, in order, in the syntax accepted by
// ParseStore.
func FormatEntries(entries []StoreEntry) string {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.Name.String())
		b.WriteString(": ")
		b.WriteString(e.Tree.String())
		b.WriteByte('\n')
	}
	return b.String()
}

type gtKind uint8

const (
	gtEOF gtKind = iota
	gtSymbol
	gtString
	gtInt
	gtFloat
	gtLAngle
	gtRAngle
	gtLParen
	gtRParen
	gtComma
	gtColon
	gtAmp
	gtArrow
	// gtBad is a character no token starts with. No production accepts
	// it, so it is a parse error wherever it stands.
	gtBad
)

type gtToken struct {
	kind gtKind
	text string
	pos  int
}

type groundParser struct {
	src string
	off int
	tok gtToken
	// check runs the productions without building what they read: every
	// Value, Name and *Node a parse function returns is then nil or zero
	// (CheckName, CheckValue).
	check bool
}

func (p *groundParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("tree: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *groundParser) next() {
	for p.off < len(p.src) {
		if c := p.src[p.off]; c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			p.off++
			continue
		}
		r, w := utf8.DecodeRuneInString(p.src[p.off:])
		if !unicode.IsSpace(r) {
			break
		}
		p.off += w
	}
	start := p.off
	if p.off >= len(p.src) {
		p.tok = gtToken{kind: gtEOF, pos: start}
		return
	}
	r, w := utf8.DecodeRuneInString(p.src[p.off:])
	switch {
	case r == '<':
		p.off += w
		p.tok = gtToken{kind: gtLAngle, text: "<", pos: start}
	case r == '>':
		p.off += w
		p.tok = gtToken{kind: gtRAngle, text: ">", pos: start}
	case r == '(':
		p.off += w
		p.tok = gtToken{kind: gtLParen, text: "(", pos: start}
	case r == ')':
		p.off += w
		p.tok = gtToken{kind: gtRParen, text: ")", pos: start}
	case r == ',':
		p.off += w
		p.tok = gtToken{kind: gtComma, text: ",", pos: start}
	case r == ':':
		p.off += w
		p.tok = gtToken{kind: gtColon, text: ":", pos: start}
	case r == '&':
		p.off += w
		p.tok = gtToken{kind: gtAmp, text: "&", pos: start}
	case r == '-' && strings.HasPrefix(p.src[p.off:], "->"):
		p.off += 2
		p.tok = gtToken{kind: gtArrow, text: "->", pos: start}
	case r == '"':
		p.off += w
		for p.off < len(p.src) {
			c := p.src[p.off]
			if c == '\\' {
				// An input may end on the backslash.
				p.off = min(p.off+2, len(p.src))
				continue
			}
			if c == '"' {
				p.off++
				break
			}
			p.off++
		}
		p.tok = gtToken{kind: gtString, text: p.src[start:p.off], pos: start}
	case r == '-' || r == '+' || unicode.IsDigit(r):
		p.off += w
		isFloat := false
		for p.off < len(p.src) {
			c := p.src[p.off]
			if c == '.' || c == 'e' || c == 'E' {
				isFloat = true
				p.off++
				if p.off < len(p.src) && (p.src[p.off] == '+' || p.src[p.off] == '-') {
					p.off++
				}
				continue
			}
			if c >= '0' && c <= '9' {
				p.off++
				continue
			}
			break
		}
		kind := gtInt
		if isFloat {
			kind = gtFloat
		}
		p.tok = gtToken{kind: kind, text: p.src[start:p.off], pos: start}
	case unicode.IsLetter(r) || r == '_':
		p.off += w
		for p.off < len(p.src) {
			if c := p.src[p.off]; c < utf8.RuneSelf {
				if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' {
					p.off++
					continue
				}
				break
			}
			r, w := utf8.DecodeRuneInString(p.src[p.off:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
				p.off += w
				continue
			}
			break
		}
		p.tok = gtToken{kind: gtSymbol, text: p.src[start:p.off], pos: start}
	default:
		p.tok = gtToken{kind: gtBad, text: string(r), pos: start}
		p.off += w
	}
}

// asciiSpace is unicode.IsSpace for a byte below utf8.RuneSelf.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

func (p *groundParser) expect(k gtKind) error {
	if p.tok.kind != k {
		return p.errorf("expected token kind %d, found %q", k, p.tok.text)
	}
	p.next()
	return nil
}

// unquote is strconv.Unquote, which a check runs as
// strconv.QuotedPrefix: the same validation, with nothing unescaped.
func (p *groundParser) unquote(lit string) (string, error) {
	if !p.check {
		return strconv.Unquote(lit)
	}
	q, err := strconv.QuotedPrefix(lit)
	if err == nil && len(q) != len(lit) {
		err = strconv.ErrSyntax
	}
	return "", err
}

func (p *groundParser) parseValue() (Value, error) {
	switch p.tok.kind {
	case gtSymbol:
		text := p.tok.text
		p.next()
		if p.check {
			return nil, nil
		}
		switch text {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
		return Symbol(text), nil
	case gtString:
		s, err := p.unquote(p.tok.text)
		if err != nil {
			return nil, p.errorf("bad string literal %s: %v", p.tok.text, err)
		}
		p.next()
		if p.check {
			return nil, nil
		}
		return String(s), nil
	case gtInt:
		i, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %s: %v", p.tok.text, err)
		}
		p.next()
		if p.check {
			return nil, nil
		}
		return Int(i), nil
	case gtFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %s: %v", p.tok.text, err)
		}
		p.next()
		if p.check {
			return nil, nil
		}
		return Float(f), nil
	case gtAmp:
		p.next()
		name, err := p.parseName()
		if err != nil || p.check {
			return nil, err
		}
		return Ref{Name: name}, nil
	default:
		return nil, p.errorf("expected value, found %q", p.tok.text)
	}
}

func (p *groundParser) parseName() (Name, error) {
	if p.tok.kind != gtSymbol {
		return Name{}, p.errorf("expected name, found %q", p.tok.text)
	}
	functor := p.tok.text
	p.next()
	if p.tok.kind != gtLParen {
		if p.check {
			return Name{}, nil
		}
		return PlainName(functor), nil
	}
	p.next()
	var args []Value
	for {
		// Skolem arguments may be tree-shaped (a rule can mint
		// identities over whole subtrees), so each argument position
		// accepts full tree syntax, not just scalar values.
		v, err := p.parseValueOrTree()
		if err != nil {
			return Name{}, err
		}
		if !p.check {
			args = append(args, v)
		}
		if p.tok.kind == gtComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(gtRParen); err != nil || p.check {
		return Name{}, err
	}
	return SkolemName(functor, args...), nil
}

// parseValueOrTree reads a value that may carry tree structure: a
// bare value when no children follow, else the whole subtree wrapped
// as a TreeVal. The leaf/value ambiguity is resolved toward the bare
// value, whose display form is identical — so a scalar, which is what
// nearly every binding and Skolem argument on the wire is, builds no
// node at all.
func (p *groundParser) parseValueOrTree() (Value, error) {
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != gtLAngle && p.tok.kind != gtArrow {
		return v, nil
	}
	n, err := p.parseChildren(v)
	if err != nil || p.check {
		return nil, err
	}
	return TreeVal{Root: n}, nil
}

func (p *groundParser) parseTree() (*Node, error) {
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return p.parseChildren(v)
}

// parseChildren builds the node labelled label and reads the children
// that follow it, if any.
func (p *groundParser) parseChildren(label Value) (*Node, error) {
	var n *Node
	if !p.check {
		n = New(label)
	}
	switch p.tok.kind {
	case gtLAngle:
		p.next()
		for {
			c, err := p.parseTree()
			if err != nil {
				return nil, err
			}
			if n != nil {
				n.Add(c)
			}
			if p.tok.kind == gtComma {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(gtRAngle); err != nil {
			return nil, err
		}
	case gtArrow:
		// `a -> b` sugar: single child.
		p.next()
		c, err := p.parseTree()
		if err != nil {
			return nil, err
		}
		if n != nil {
			n.Add(c)
		}
	}
	return n, nil
}
