package wrapper

// The two-pass SGML import that ImportSGML replaced, kept as the
// reference its one pass must equal: the document is parsed into an
// element tree, validated against the DTD with a second walk, and
// converted into a YAT tree with a third. The parser and validator are
// the former internal/sgml document code, unchanged but for their
// names.

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"yat/internal/sgml"
	"yat/internal/tree"
)

// refElement is one node of an SGML document: a tag with either child
// elements or character data (the brochure DTD has no mixed content).
type refElement struct {
	Name     string
	Children []*refElement
	Text     string // character data for #PCDATA elements
}

// String renders the element as markup.
func (e *refElement) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *refElement) write(b *strings.Builder) {
	fmt.Fprintf(b, "<%s>", e.Name)
	if len(e.Children) == 0 {
		b.WriteString(sgml.Escape(e.Text))
	}
	for _, c := range e.Children {
		c.write(b)
	}
	fmt.Fprintf(b, "</%s>", e.Name)
}

// refImportSGML is ImportSGML by the two passes and the tree walk.
func refImportSGML(docs map[string]string, opts *SGMLOptions) (*tree.Store, error) {
	if opts == nil {
		opts = &SGMLOptions{InferTypes: true}
	}
	store := tree.NewStore()
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, name := range names {
		doc, err := refParseDocument(docs[name])
		if err != nil {
			return nil, fmt.Errorf("wrapper: importing %s: %w", name, err)
		}
		if opts.DTD != nil {
			if err := refValidate(doc, opts.DTD); err != nil {
				return nil, fmt.Errorf("wrapper: importing %s: %w", name, err)
			}
		}
		store.Put(tree.PlainName(name), refSGMLTree(doc, opts))
	}
	return store, nil
}

// refSGMLTree converts one SGML element into a YAT tree: each element
// becomes a node labeled with its tag; #PCDATA becomes an atom leaf.
func refSGMLTree(e *refElement, opts *SGMLOptions) *tree.Node {
	if len(e.Children) == 0 {
		return tree.Sym(e.Name, tree.New(pcdataValue(e.Text, opts.InferTypes)))
	}
	n := tree.Sym(e.Name)
	for _, c := range e.Children {
		n.Add(refSGMLTree(c, opts))
	}
	return n
}

// refParseDocument reads one SGML document instance: nested tags with
// character data, comments skipped, entities decoded. A leading
// in-line DOCTYPE declaration (with its internal subset) is skipped.
func refParseDocument(src string) (*refElement, error) {
	p := &refDocParser{src: src}
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

type refDocParser struct {
	src string
	off int
}

func (p *refDocParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sgml: document offset %d: %s", p.off, fmt.Sprintf(format, args...))
}

func (p *refDocParser) skipSpaceAndComments() {
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

func (p *refDocParser) element() (*refElement, error) {
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
	e := &refElement{Name: name}

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
		e.Text = sgml.Unescape(strings.TrimSpace(text.String()))
	} else if strings.TrimSpace(text.String()) != "" {
		return nil, p.errorf("mixed content in <%s> is not supported", name)
	}
	return e, nil
}

func (p *refDocParser) name() (string, error) {
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

// refValidate checks the document against the DTD: the root element
// must be the declared document type and every element's children must
// match its content model.
func refValidate(doc *refElement, dtd *sgml.DTD) error {
	if doc.Name != dtd.Root {
		return fmt.Errorf("sgml: document element <%s>, DTD declares <%s>", doc.Name, dtd.Root)
	}
	return refValidateElement(doc, dtd)
}

func refValidateElement(e *refElement, dtd *sgml.DTD) error {
	model, ok := dtd.Element(e.Name)
	if !ok {
		return fmt.Errorf("sgml: element <%s> is not declared", e.Name)
	}
	switch model.Kind {
	case sgml.MPCData:
		if len(e.Children) > 0 {
			return fmt.Errorf("sgml: <%s> declared #PCDATA but has child elements", e.Name)
		}
	case sgml.MEmpty:
		if len(e.Children) > 0 || e.Text != "" {
			return fmt.Errorf("sgml: <%s> declared EMPTY but has content", e.Name)
		}
	case sgml.MAny:
		// anything goes
	default:
		names := make([]string, len(e.Children))
		for i, c := range e.Children {
			names[i] = c.Name
		}
		if e.Text != "" {
			return fmt.Errorf("sgml: <%s> has character data but its model is %s", e.Name, model)
		}
		if !refMatchModel(model, names) {
			return fmt.Errorf("sgml: children of <%s> (%s) do not match %s",
				e.Name, strings.Join(names, ", "), model)
		}
	}
	for _, c := range e.Children {
		if err := refValidateElement(c, dtd); err != nil {
			return err
		}
	}
	return nil
}

// refMatchModel checks a child-name sequence against a content model
// with backtracking.
func refMatchModel(m *sgml.Model, names []string) bool {
	ok, rest := refMatchOcc(m, names)
	return ok && len(rest) == 0
}

// refMatchOcc matches one model node including its occurrence
// indicator, returning the unconsumed suffix. Greedy with backtracking
// through the recursion.
func refMatchOcc(m *sgml.Model, names []string) (bool, []string) {
	switch m.Occ {
	case sgml.One:
		return refMatchOnce(m, names)
	case sgml.Optional:
		if ok, rest := refMatchOnce(m, names); ok {
			return true, rest
		}
		return true, names
	case sgml.ZeroOrMore, sgml.OneOrMore:
		count := 0
		rest := names
		for {
			ok, next := refMatchOnce(m, rest)
			if !ok || len(next) == len(rest) {
				break
			}
			rest = next
			count++
		}
		if m.Occ == sgml.OneOrMore && count == 0 {
			return false, names
		}
		return true, rest
	}
	return false, names
}

func refMatchOnce(m *sgml.Model, names []string) (bool, []string) {
	switch m.Kind {
	case sgml.MName:
		if len(names) > 0 && names[0] == m.Name {
			return true, names[1:]
		}
		return false, names
	case sgml.MSeq:
		rest := names
		for _, it := range m.Items {
			ok, next := refMatchOcc(it, rest)
			if !ok {
				return false, names
			}
			rest = next
		}
		return true, rest
	case sgml.MChoice:
		for _, it := range m.Items {
			if ok, rest := refMatchOcc(it, names); ok {
				return true, rest
			}
		}
		return false, names
	case sgml.MPCData, sgml.MEmpty:
		return len(names) == 0, names
	case sgml.MAny:
		return true, nil
	}
	return false, names
}
