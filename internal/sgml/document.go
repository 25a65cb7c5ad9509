package sgml

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Element is one node of an SGML document: a tag with either child
// elements or character data (the brochure DTD has no mixed content).
type Element struct {
	Name     string
	Children []*Element
	Text     string // character data for #PCDATA elements
}

// NewElement returns an element with children.
func NewElement(name string, children ...*Element) *Element {
	return &Element{Name: name, Children: children}
}

// TextElement returns a #PCDATA element.
func TextElement(name, text string) *Element {
	return &Element{Name: name, Text: text}
}

// IsText reports whether the element holds character data.
func (e *Element) IsText() bool { return len(e.Children) == 0 && e.Text != "" }

// Find returns the first child with the given tag.
func (e *Element) Find(name string) (*Element, bool) {
	for _, c := range e.Children {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// FindAll returns every child with the given tag.
func (e *Element) FindAll(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// String renders the element as markup.
func (e *Element) String() string {
	var b strings.Builder
	e.write(&b, 0, false)
	return b.String()
}

// Pretty renders the element with indentation.
func (e *Element) Pretty() string {
	var b strings.Builder
	e.write(&b, 0, true)
	return b.String()
}

func (e *Element) write(b *strings.Builder, depth int, pretty bool) {
	indent := ""
	if pretty {
		indent = strings.Repeat("  ", depth)
		b.WriteString(indent)
	}
	fmt.Fprintf(b, "<%s>", e.Name)
	if len(e.Children) == 0 {
		b.WriteString(Escape(e.Text))
	} else {
		if pretty {
			b.WriteByte('\n')
		}
		for _, c := range e.Children {
			c.write(b, depth+1, pretty)
			if pretty {
				b.WriteByte('\n')
			}
		}
		if pretty {
			b.WriteString(indent)
		}
	}
	fmt.Fprintf(b, "</%s>", e.Name)
}

// The entity replacers are built once: a strings.Replacer is safe for
// concurrent use, and building one costs more than most replacements.
var (
	escaper   = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	unescaper = strings.NewReplacer("&lt;", "<", "&gt;", ">", "&quot;", `"`, "&apos;", "'", "&amp;", "&")
)

// Escape encodes the SGML character entities.
func Escape(s string) string { return escaper.Replace(s) }

// Unescape decodes the SGML character entities. Text without an '&'
// has none, and comes back as is: the multi-byte replacer would copy
// it.
func Unescape(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return unescaper.Replace(s)
}

// ParseDocument reads one SGML document instance: nested tags with
// character data, comments skipped, entities decoded. A leading
// in-line DOCTYPE declaration (with its internal subset) is skipped —
// callers use ParseDTD for it.
func ParseDocument(src string) (*Element, error) {
	p := &docParser{src: src}
	p.skipSpaceAndComments()
	if strings.HasPrefix(p.src[p.off:], "<!DOCTYPE") {
		depth := 0
		for p.off < len(p.src) {
			switch p.src[p.off] {
			case '[':
				depth++
			case ']':
				depth--
			case '>':
				if depth == 0 {
					p.off++
					goto doctypeDone
				}
			}
			p.off++
		}
		return nil, p.errorf("unterminated DOCTYPE declaration")
	}
doctypeDone:
	p.skipSpaceAndComments()
	root, err := p.element()
	if err != nil {
		return nil, err
	}
	p.skipSpaceAndComments()
	if p.off < len(p.src) {
		return nil, p.errorf("trailing content after document element")
	}
	return root, nil
}

// MustParseDocument is ParseDocument that panics on error.
func MustParseDocument(src string) *Element {
	e, err := ParseDocument(src)
	if err != nil {
		panic(err)
	}
	return e
}

type docParser struct {
	src string
	off int
}

func (p *docParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sgml: document offset %d: %s", p.off, fmt.Sprintf(format, args...))
}

func (p *docParser) skipSpaceAndComments() {
	for p.off < len(p.src) {
		if strings.HasPrefix(p.src[p.off:], "<!--") {
			end := strings.Index(p.src[p.off:], "-->")
			if end < 0 {
				p.off = len(p.src)
				return
			}
			p.off += end + 3
			continue
		}
		r, w := utf8.DecodeRuneInString(p.src[p.off:])
		if !unicode.IsSpace(r) {
			return
		}
		p.off += w
	}
}

func (p *docParser) element() (*Element, error) {
	if p.off >= len(p.src) || p.src[p.off] != '<' {
		return nil, p.errorf("expected start tag")
	}
	p.off++
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	// Attributes are tolerated and skipped (the paper's DTD declares
	// none).
	for p.off < len(p.src) && p.src[p.off] != '>' {
		p.off++
	}
	if p.off >= len(p.src) {
		return nil, p.errorf("unterminated start tag <%s", name)
	}
	p.off++ // consume >
	e := &Element{Name: name}

	var text strings.Builder
	for {
		if p.off >= len(p.src) {
			return nil, p.errorf("unterminated element <%s>", name)
		}
		if strings.HasPrefix(p.src[p.off:], "<!--") {
			end := strings.Index(p.src[p.off:], "-->")
			if end < 0 {
				return nil, p.errorf("unterminated comment")
			}
			p.off += end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.off:], "</") {
			p.off += 2
			closing, err := p.name()
			if err != nil {
				return nil, err
			}
			if closing != name {
				return nil, p.errorf("mismatched end tag </%s> for <%s>", closing, name)
			}
			if p.off >= len(p.src) || p.src[p.off] != '>' {
				return nil, p.errorf("unterminated end tag </%s", closing)
			}
			p.off++
			break
		}
		if p.src[p.off] == '<' {
			child, err := p.element()
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, child)
			continue
		}
		start := p.off
		for p.off < len(p.src) && p.src[p.off] != '<' {
			p.off++
		}
		text.WriteString(p.src[start:p.off])
	}
	if len(e.Children) == 0 {
		e.Text = Unescape(strings.TrimSpace(text.String()))
	} else if strings.TrimSpace(text.String()) != "" {
		return nil, p.errorf("mixed content in <%s> is not supported", name)
	}
	return e, nil
}

func (p *docParser) name() (string, error) {
	start := p.off
	for p.off < len(p.src) {
		r, w := utf8.DecodeRuneInString(p.src[p.off:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' {
			p.off += w
			continue
		}
		break
	}
	if p.off == start {
		return "", p.errorf("expected tag name")
	}
	return p.src[start:p.off], nil
}

// Validate checks the document against the DTD: the root element must
// be the declared document type and every element's children must
// match its content model.
func Validate(doc *Element, dtd *DTD) error {
	if doc.Name != dtd.Root {
		return fmt.Errorf("sgml: document element <%s>, DTD declares <%s>", doc.Name, dtd.Root)
	}
	return validateElement(doc, dtd)
}

func validateElement(e *Element, dtd *DTD) error {
	model, ok := dtd.Element(e.Name)
	if !ok {
		return fmt.Errorf("sgml: element <%s> is not declared", e.Name)
	}
	switch model.Kind {
	case MPCData:
		if len(e.Children) > 0 {
			return fmt.Errorf("sgml: <%s> declared #PCDATA but has child elements", e.Name)
		}
	case MEmpty:
		if len(e.Children) > 0 || e.Text != "" {
			return fmt.Errorf("sgml: <%s> declared EMPTY but has content", e.Name)
		}
	case MAny:
		// anything goes
	default:
		names := make([]string, len(e.Children))
		for i, c := range e.Children {
			names[i] = c.Name
		}
		if e.Text != "" {
			return fmt.Errorf("sgml: <%s> has character data but its model is %s", e.Name, model)
		}
		if !matchModel(model, names) {
			return fmt.Errorf("sgml: children of <%s> (%s) do not match %s",
				e.Name, strings.Join(names, ", "), model)
		}
	}
	for _, c := range e.Children {
		if err := validateElement(c, dtd); err != nil {
			return err
		}
	}
	return nil
}

// matchModel checks a child-name sequence against a content model
// with backtracking.
func matchModel(m *Model, names []string) bool {
	ok, rest := matchOcc(m, names)
	return ok && len(rest) == 0
}

// matchOcc matches one model node including its occurrence indicator,
// returning the unconsumed suffix. Greedy with backtracking through
// the recursion.
func matchOcc(m *Model, names []string) (bool, []string) {
	switch m.Occ {
	case One:
		return matchOnce(m, names)
	case Optional:
		if ok, rest := matchOnce(m, names); ok {
			return true, rest
		}
		return true, names
	case ZeroOrMore, OneOrMore:
		count := 0
		rest := names
		for {
			ok, next := matchOnce(m, rest)
			if !ok || len(next) == len(rest) {
				break
			}
			rest = next
			count++
		}
		if m.Occ == OneOrMore && count == 0 {
			return false, names
		}
		return true, rest
	}
	return false, names
}

func matchOnce(m *Model, names []string) (bool, []string) {
	switch m.Kind {
	case MName:
		if len(names) > 0 && names[0] == m.Name {
			return true, names[1:]
		}
		return false, names
	case MSeq:
		rest := names
		for _, it := range m.Items {
			ok, next := matchOcc(it, rest)
			if !ok {
				return false, names
			}
			rest = next
		}
		return true, rest
	case MChoice:
		for _, it := range m.Items {
			if ok, rest := matchOcc(it, names); ok {
				return true, rest
			}
		}
		return false, names
	case MPCData, MEmpty:
		return len(names) == 0, names
	case MAny:
		return true, nil
	}
	return false, names
}
