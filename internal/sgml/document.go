package sgml

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// escaper is built once: a strings.Replacer is safe for concurrent use,
// and building one costs more than most replacements.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")

// Escape encodes the SGML character entities.
func Escape(s string) string { return escaper.Replace(s) }

// namedEntities are the character entities Unescape decodes by name.
var namedEntities = [...]struct{ ref, char string }{
	{"&lt;", "<"}, {"&gt;", ">"}, {"&quot;", `"`}, {"&apos;", "'"}, {"&amp;", "&"},
}

// Unescape decodes the SGML character entities and the numeric
// character references, decimal (&#233;) and hexadecimal (&#xE9;), in
// one left-to-right pass: what one reference decodes to is never read
// as part of another, so &amp;#38; decodes to &#38;. A reference that
// names no character (zero, a surrogate, past U+10FFFF) stays literal,
// as an unknown entity does. Text without an '&' has none, and comes
// back as is.
func Unescape(s string) string {
	i := strings.IndexByte(s, '&')
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i >= 0 {
		b.WriteString(s[:i])
		s = s[i:]
		s = s[unescapeOne(&b, s):]
		i = strings.IndexByte(s, '&')
	}
	b.WriteString(s)
	return b.String()
}

// unescapeOne writes what the reference s begins with decodes to, or
// the '&' it begins with when it names no character, and returns how
// many bytes of s it read.
func unescapeOne(b *strings.Builder, s string) int {
	if r, n := charRef(s); n > 0 {
		b.WriteRune(r)
		return n
	}
	for _, e := range namedEntities {
		if strings.HasPrefix(s, e.ref) {
			b.WriteString(e.char)
			return len(e.ref)
		}
	}
	b.WriteByte('&')
	return 1
}

// charRef decodes the numeric character reference s begins with,
// returning its character and length, or a zero length when s begins
// with none or with one that names no character. It reads at most ten
// bytes, as many as &#1114111; or &#x10FFFF; take: a reference padded
// past that with leading zeros stays literal.
func charRef(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		return 0, 0
	}
	end := strings.IndexByte(s[:min(len(s), len("&#1114111;"))], ';')
	if end < 0 {
		return 0, 0
	}
	digits, base := s[2:end], 10
	if digits != "" && (digits[0] == 'x' || digits[0] == 'X') {
		digits, base = digits[1:], 16
	}
	v, err := strconv.ParseUint(digits, base, 32)
	if err != nil || v == 0 || !utf8.ValidRune(rune(v)) {
		return 0, 0
	}
	return rune(v), end + 1
}

// A Sink receives the elements of a document as they close: each child
// before its parent, siblings in document order.
type Sink interface {
	// Element reports one element. It had children child elements,
	// the last children elements reported before it. An element with
	// none holds character data, text: trimmed of surrounding white
	// space, entities decoded. text is a substring of the document
	// unless a reference was decoded or a comment split it.
	Element(name string, children int, text string)
}

// Scanner reads SGML document instances in one pass over their bytes,
// reporting each element to a Sink as it closes. A Scanner keeps its
// stacks from one document to the next, and is not safe for concurrent
// use; the zero Scanner is ready.
type Scanner struct {
	src  string
	off  int
	dtd  *DTD
	sink Sink
	// names holds the names of the closed children of every open
	// element, innermost last: the content-model check reads them.
	names []string
	// buf holds character data that cannot stay a substring of src:
	// text a comment split, and non-blank text beside child elements,
	// kept for the mixed-content check. Each open element owns the
	// bytes from where buf ended when it opened.
	buf []byte
}

// Scan reads one document instance: nested tags with character data,
// comments skipped, entities decoded. A leading in-line DOCTYPE
// declaration (with its internal subset) is skipped — callers use
// ParseDTD for it. With a dtd it also validates: the document element
// must be the declared document type, and each element must match its
// content model when it closes. On an error, what sink was told is to
// be discarded.
func (s *Scanner) Scan(src string, dtd *DTD, sink Sink) error {
	s.src, s.off, s.dtd, s.sink = src, 0, dtd, sink
	s.names, s.buf = s.names[:0], s.buf[:0]
	s.skipSpaceAndComments()
	if strings.HasPrefix(s.src[s.off:], "<!DOCTYPE") {
		if err := s.skipDoctype(); err != nil {
			return err
		}
	}
	s.skipSpaceAndComments()
	if err := s.element(); err != nil {
		return err
	}
	s.skipSpaceAndComments()
	if s.off < len(s.src) {
		return s.errorf("trailing content after document element")
	}
	if dtd != nil && s.names[0] != dtd.Root {
		return fmt.Errorf("sgml: document element <%s>, DTD declares <%s>", s.names[0], dtd.Root)
	}
	return nil
}

func (s *Scanner) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sgml: document offset %d: %s", s.off, fmt.Sprintf(format, args...))
}

// skipDoctype skips a DOCTYPE declaration and its internal subset.
func (s *Scanner) skipDoctype() error {
	depth := 0
	for ; s.off < len(s.src); s.off++ {
		switch s.src[s.off] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth == 0 {
				s.off++
				return nil
			}
		}
	}
	return s.errorf("unterminated DOCTYPE declaration")
}

func (s *Scanner) skipSpaceAndComments() {
	for s.off < len(s.src) {
		c := s.src[s.off]
		if c == '<' && strings.HasPrefix(s.src[s.off:], "<!--") {
			end := strings.Index(s.src[s.off:], "-->")
			if end < 0 {
				s.off = len(s.src)
				return
			}
			s.off += end + 3
			continue
		}
		if c < utf8.RuneSelf {
			if !asciiSpace(c) {
				return
			}
			s.off++
			continue
		}
		r, w := utf8.DecodeRuneInString(s.src[s.off:])
		if !unicode.IsSpace(r) {
			return
		}
		s.off += w
	}
}

// element reads one element from its start tag to its end tag, and
// reports it.
func (s *Scanner) element() error {
	if s.off >= len(s.src) || s.src[s.off] != '<' {
		return s.errorf("expected start tag")
	}
	s.off++
	name, err := s.name()
	if err != nil {
		return err
	}
	// Attributes are tolerated and skipped (the paper's DTD declares
	// none).
	gt := strings.IndexByte(s.src[s.off:], '>')
	if gt < 0 {
		s.off = len(s.src)
		return s.errorf("unterminated start tag <%s", name)
	}
	s.off += gt + 1

	base, bufBase := len(s.names), len(s.buf)
	// text is the one run of character data read so far while none is
	// in buf. Blank text beside child elements is dropped: blank runs
	// decode to whole space runes, so they cannot change what the
	// others concatenate to.
	text, inBuf := "", false
	for {
		if s.off >= len(s.src) {
			return s.errorf("unterminated element <%s>", name)
		}
		if s.src[s.off] != '<' {
			end := strings.IndexByte(s.src[s.off:], '<')
			if end < 0 {
				end = len(s.src) - s.off
			}
			run := s.src[s.off : s.off+end]
			s.off += end
			switch {
			case inBuf:
				s.buf = append(s.buf, run...)
			case len(s.names) > base:
				if !isBlank(run) {
					s.buf, inBuf = append(s.buf, run...), true
				}
			case text == "":
				text = run
			default:
				s.buf, inBuf, text = append(append(s.buf, text...), run...), true, ""
			}
			continue
		}
		rest := s.src[s.off:]
		if strings.HasPrefix(rest, "<!--") {
			end := strings.Index(rest, "-->")
			if end < 0 {
				return s.errorf("unterminated comment")
			}
			s.off += end + 3
			continue
		}
		if strings.HasPrefix(rest, "</") {
			s.off += 2
			closing, err := s.name()
			if err != nil {
				return err
			}
			if closing != name {
				return s.errorf("mismatched end tag </%s> for <%s>", closing, name)
			}
			if s.off >= len(s.src) || s.src[s.off] != '>' {
				return s.errorf("unterminated end tag </%s", closing)
			}
			s.off++
			break
		}
		if text != "" {
			// The first child: the text before it is character data
			// no longer, only a candidate for mixed content.
			if !isBlank(text) {
				s.buf, inBuf = append(s.buf, text...), true
			}
			text = ""
		}
		if err := s.element(); err != nil {
			return err
		}
	}

	children := s.names[base:]
	if len(children) == 0 {
		if inBuf {
			text = string(bytes.TrimSpace(s.buf[bufBase:]))
		} else {
			text = strings.TrimSpace(text)
		}
		text = Unescape(text)
	} else if inBuf && len(bytes.TrimSpace(s.buf[bufBase:])) != 0 {
		return s.errorf("mixed content in <%s> is not supported", name)
	}
	s.buf = s.buf[:bufBase]
	if s.dtd != nil {
		if err := s.dtd.check(name, children, text); err != nil {
			return err
		}
	}
	s.sink.Element(name, len(children), text)
	s.names = append(s.names[:base], name)
	return nil
}

// name reads a tag name: letters, digits, '_', '-' and '.'.
func (s *Scanner) name() (string, error) {
	start := s.off
	for s.off < len(s.src) {
		c := s.src[s.off]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-' || c == '.' {
				s.off++
				continue
			}
			break
		}
		r, w := utf8.DecodeRuneInString(s.src[s.off:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		s.off += w
	}
	if s.off == start {
		return "", s.errorf("expected tag name")
	}
	return s.src[start:s.off], nil
}

// asciiSpace reports whether an ASCII byte is white space to
// unicode.IsSpace.
func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// isBlank reports whether s is all white space, as strings.TrimSpace
// sees it.
func isBlank(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !asciiSpace(c) {
			return c >= utf8.RuneSelf && strings.TrimSpace(s[i:]) == ""
		}
	}
	return true
}

// check is the content-model check of one closed element: its name
// must be declared, and its child element names (or, with none, its
// character data) must match the element's model.
func (d *DTD) check(name string, children []string, text string) error {
	model, ok := d.Element(name)
	if !ok {
		return fmt.Errorf("sgml: element <%s> is not declared", name)
	}
	switch model.Kind {
	case MPCData:
		if len(children) > 0 {
			return fmt.Errorf("sgml: <%s> declared #PCDATA but has child elements", name)
		}
	case MEmpty:
		if len(children) > 0 || text != "" {
			return fmt.Errorf("sgml: <%s> declared EMPTY but has content", name)
		}
	case MAny:
		// anything goes
	default:
		if text != "" {
			return fmt.Errorf("sgml: <%s> has character data but its model is %s", name, model)
		}
		if !matchModel(model, children) {
			return fmt.Errorf("sgml: children of <%s> (%s) do not match %s",
				name, strings.Join(children, ", "), model)
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
