package wire

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/tree"
)

// DecodeError reports an ask reply DecodeAskResponse refused: JSON that
// is malformed or not shaped like an AskResponse, a display form the
// tree parser rejects, or one of the refusals DecodeAskResponse lists.
type DecodeError struct {
	// Offset is the byte offset into the reply the error was found at.
	Offset int
	Msg    string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("ask reply, offset %d: %s", e.Offset, e.Msg)
}

// DecodeAskResponse is the inverse of AppendAskResponse, and the one
// production decoder of ask replies: a single pass over the bytes with
// no reflection, no AskAnswer values and no binding maps of strings.
// It validates every byte as JSON, parses each answer's name and
// binding values eagerly with tree.ParseName and tree.ParseValue (an
// unparseable display form is an error, not a deferred one), and
// returns answers built by mediator.RelayedAnswer: each keeps its
// producer's merge key, and — when the producer wrote them exactly as
// AppendAskResponse would — its `"name":…,"binding":{…}` members, for
// a federation parent to forward instead of rendering the trees again.
//
// Members are kept only in that canonical form: name then binding
// (non-empty, or absent), no whitespace between tokens, binding keys
// strictly ascending, and every string literal equal to
// appendJSONString of its own content. Anything else — a previous
// release's indented reply, another escaper, a reordered object, a
// member this release does not know — decodes to the same typed answer
// with nothing to forward, and is rendered from its trees. So a
// parent's reply stays byte-identical to json.Marshal of the wire
// struct over the strings its children sent.
//
// It takes every reply json.Unmarshal takes into an AskResponse
// (members in any order, unknown members, null for a zero value,
// escapes and invalid UTF-8 decoded as encoding/json decodes them),
// except that it refuses:
//
//   - a document that is not a JSON object (encoding/json takes null);
//   - a member of the wire structs, or a binding variable, that appears
//     twice in one object (encoding/json keeps the last, and merges two
//     binding objects);
//   - a key that matches a wire member only under case folding, such as
//     "Name" (encoding/json takes it for the member);
//   - a count that disagrees with the number of answers carried.
//
// The returned answers share one copy of data; data itself is not
// retained. Every error is a *DecodeError.
func DecodeAskResponse(data []byte) (generation int64, answers []mediator.Answer, err error) {
	// One copy, so that every name, variable, display form and forwarded
	// member below is a substring and not an allocation of its own.
	d := askDecoder{src: string(data)}
	d.ws()
	var count int64
	var seen uint8
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil {
			return 0, nil, err
		}
		if !more {
			break
		}
		if err = d.wireMember(key, replyMembers, &seen); err != nil {
			return 0, nil, err
		}
		switch key {
		case "generation":
			generation, err = d.integer()
		case "count":
			count, err = d.integer()
		case "answers":
			answers, err = d.answers()
		default: // the profile, or a member of a later release
			err = d.skipValue()
		}
		if err != nil {
			return 0, nil, err
		}
	}
	if d.ws(); d.pos != len(d.src) {
		return 0, nil, d.fail("trailing data after the reply")
	}
	if count != int64(len(answers)) {
		return 0, nil, d.fail("count is %d, the reply carries %d answers", count, len(answers))
	}
	return generation, answers, nil
}

// The members of AskResponse and AskAnswer, in struct order.
var (
	replyMembers  = []string{"generation", "count", "answers", "profile"}
	answerMembers = []string{"name", "binding", "key"}
)

// sawName is the bit wireMember sets for answerMembers[0].
const sawName = 1 << 0

// maxDepth is encoding/json's nesting limit, so a skipped member is
// refused at exactly the depth json.Unmarshal refuses it.
const maxDepth = 10000

type askDecoder struct {
	src   string
	pos   int
	depth int
	// canon is set at the start of each answer object and cleared by
	// anything inside it AppendAskResponse would have written otherwise.
	canon bool
	// unq and esc are scratch for unquoting a string literal and for
	// re-escaping its content to compare the two.
	unq, esc []byte
}

func (d *askDecoder) fail(format string, args ...any) error {
	return &DecodeError{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

// peek is the byte at pos, 0 at the end of the reply (a NUL is valid
// nowhere outside a string, so every caller refuses it).
func (d *askDecoder) peek() byte {
	if d.pos < len(d.src) {
		return d.src[d.pos]
	}
	return 0
}

func (d *askDecoder) ws() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
			d.canon = false
		default:
			return
		}
	}
}

// null consumes a null literal if one is next: the zero value of
// whatever member it stands for, as in encoding/json.
func (d *askDecoder) null() bool {
	if strings.HasPrefix(d.src[d.pos:], "null") {
		d.pos += len("null")
		return true
	}
	return false
}

// open enters the object or array whose bracket is next.
func (d *askDecoder) open(bracket byte) error {
	if d.peek() != bracket {
		return d.fail("expected %q", bracket)
	}
	if d.depth++; d.depth > maxDepth {
		return d.fail("nested deeper than %d", maxDepth)
	}
	d.pos++
	return nil
}

// next moves to the next element of the container d is inside — past
// its opening bracket when first, else past the previous element — and
// reports false once it has consumed the closing bracket instead.
func (d *askDecoder) next(first bool, closing byte) (more bool, err error) {
	d.ws()
	c := d.peek()
	switch {
	case c == closing:
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		d.ws()
		if d.peek() != closing {
			return true, nil
		}
	}
	return false, d.fail("expected ',' or %q", closing)
}

// member opens the object at pos when first, moves to its next member,
// and returns the member's unquoted key with d at its value.
func (d *askDecoder) member(first bool) (key string, more bool, err error) {
	if first {
		if err := d.open('{'); err != nil {
			return "", false, err
		}
	}
	if more, err = d.next(first, '}'); !more {
		return "", false, err
	}
	if key, err = d.str(); err != nil {
		return "", false, err
	}
	if d.ws(); d.peek() != ':' {
		return "", false, d.fail("expected ':' after an object key")
	}
	d.pos++
	d.ws()
	return key, true, nil
}

// wireMember checks an object key against the wire struct's members,
// of which seen holds one bit each: a member may appear once, and a
// key that is none of them must not be one that encoding/json — which
// falls back to matching under Unicode case folding — takes for one.
func (d *askDecoder) wireMember(key string, members []string, seen *uint8) error {
	i := slices.Index(members, key)
	if i < 0 {
		for _, m := range members {
			if strings.EqualFold(key, m) {
				return d.fail("member %q differs from %q only in case", key, m)
			}
		}
		return nil
	}
	if *seen&(1<<i) != 0 {
		return d.fail("duplicate member %q", key)
	}
	*seen |= 1 << i
	return nil
}

// strClass sorts the bytes of a string literal: 0 stands for itself in
// the content and in the canonical literal alike, 1 stands for itself
// but appendJSONString may write it otherwise (HTML-unsafe, or part of
// a multi-byte sequence), 2 ends the run: the closing quote, an escape,
// or a control character, which is no JSON.
var strClass = func() (class [256]uint8) {
	for c := range class {
		switch {
		case c < ' ' || c == '"' || c == '\\':
			class[c] = 2
		case c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&':
			class[c] = 1
		}
	}
	return class
}()

// scanString validates the string literal at pos and moves past it,
// returning what stands between its quotes. plain reports that raw is
// its own content and its own canonical form: no escape to undo and no
// byte appendJSONString would escape or replace.
func (d *askDecoder) scanString() (raw string, plain bool, err error) {
	if d.peek() != '"' {
		return "", false, d.fail("expected a string")
	}
	start := d.pos + 1
	var notPlain uint8
	for i := start; i < len(d.src); {
		c := d.src[i]
		if class := strClass[c]; class < 2 {
			notPlain |= class
			i++
			continue
		}
		d.pos = i
		if c == '"' {
			d.pos++
			return d.src[start:i], notPlain == 0, nil
		}
		if c != '\\' {
			return "", false, d.fail("control character in string")
		}
		notPlain = 1
		if i++; i == len(d.src) {
			break
		}
		switch d.src[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i++
		case 'u':
			if hex4(d.src[i-1:]) < 0 {
				return "", false, d.fail(`\u escape without four hex digits`)
			}
			i += 5
		default:
			return "", false, d.fail("invalid escape in string")
		}
	}
	d.pos = len(d.src)
	return "", false, d.fail("unterminated string")
}

// hex4 decodes the \uXXXX escape s starts with, -1 if it does not.
func hex4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(s[2:6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// str reads the string literal at pos and returns its content,
// unquoted exactly as encoding/json unquotes: an unpaired surrogate
// escape and each invalid UTF-8 byte become U+FFFD. A literal that is
// not appendJSONString of that content clears canon.
func (d *askDecoder) str() (string, error) {
	quote := d.pos
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	b := d.unq[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' && c < utf8.RuneSelf {
			run := i
			for i++; i < len(raw) && raw[i] != '\\' && raw[i] < utf8.RuneSelf; i++ {
			}
			b = append(b, raw[run:i]...)
			continue
		}
		switch {
		case c != '\\':
			r, size := utf8.DecodeRuneInString(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		case raw[i+1] == 'u':
			r := hex4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(raw[i:])); pair != utf8.RuneError {
					i += 6
					r = pair
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		default:
			switch c = raw[i+1]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			b = append(b, c)
			i += 2
		}
	}
	d.unq = b
	if d.canon {
		d.esc = appendJSONString(d.esc[:0], b)
		d.canon = string(d.esc) == d.src[quote:d.pos]
	}
	if string(b) == raw {
		return raw, nil
	}
	return string(b), nil
}

// number validates the JSON number at pos, moves past it and returns
// its literal. The grammar is encoding/json's own.
func (d *askDecoder) number() (string, error) {
	start := d.pos
	for strings.IndexByte("-0123456789.eE+", d.peek()) >= 0 {
		d.pos++
	}
	lit := d.src[start:d.pos]
	if !json.Valid([]byte(lit)) {
		d.pos = start
		return "", d.fail("expected a number")
	}
	return lit, nil
}

// integer reads an int64 member: a number in integer form, or null.
func (d *askDecoder) integer() (int64, error) {
	if d.null() {
		return 0, nil
	}
	start := d.pos
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		d.pos = start
		return 0, d.fail("%s is not a 64-bit integer", lit)
	}
	return n, nil
}

// skipValue validates and moves past one JSON value of any shape: a
// member this decoder has no use for.
func (d *askDecoder) skipValue() error {
	switch c := d.peek(); {
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '{':
		for first := true; ; first = false {
			if _, more, err := d.member(first); !more {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			if more, err := d.next(first, ']'); !more {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if strings.HasPrefix(d.src[d.pos:], lit) {
			d.pos += len(lit)
			return nil
		}
	}
	return d.fail("expected a JSON value")
}

// answers reads the answers array (or null).
func (d *askDecoder) answers() ([]mediator.Answer, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.open('['); err != nil {
		return nil, err
	}
	var out []mediator.Answer
	for first := true; ; first = false {
		if more, err := d.next(first, ']'); !more {
			return out, err
		}
		a, err := d.answer()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
}

// answer reads one answer object.
func (d *askDecoder) answer() (mediator.Answer, error) {
	var (
		name, key string
		binding   engine.Binding
		seen      uint8
	)
	d.canon = true
	start, nameAt := d.pos, d.pos
	// The members to forward run from past the '{' to the end of the
	// name, or of the binding when one follows it.
	membersEnd := 0
	for first := true; ; first = false {
		k, more, err := d.member(first)
		if err != nil {
			return mediator.Answer{}, err
		}
		if !more {
			break
		}
		before := seen
		if err = d.wireMember(k, answerMembers, &seen); err != nil {
			return mediator.Answer{}, err
		}
		switch k {
		case "name":
			d.canon = d.canon && before == 0
			nameAt = d.pos
			name, err = d.str()
			membersEnd = d.pos
		case "binding":
			d.canon = d.canon && before == sawName // and nothing else
			binding, err = d.binding()
			membersEnd = d.pos
		case "key":
			// The key is rendered again from its content, never forwarded:
			// how its literal is written decides nothing.
			canon := d.canon
			if d.canon = false; !d.null() {
				key, err = d.str()
			}
			d.canon = canon
		default:
			d.canon = false
			err = d.skipValue()
		}
		if err != nil {
			return mediator.Answer{}, err
		}
	}
	n, err := tree.ParseName(name)
	if err != nil {
		d.pos = nameAt
		return mediator.Answer{}, d.fail("unparseable answer name %q: %v", name, err)
	}
	members := ""
	if d.canon && seen&sawName != 0 {
		members = d.src[start+1 : membersEnd]
	}
	return mediator.RelayedAnswer(n, binding, key, members), nil
}

// binding reads one answer's binding object (or null), parsing each
// display form as it goes. An empty one is nil, and never canonical:
// the encoder's omitempty leaves it out.
func (d *askDecoder) binding() (engine.Binding, error) {
	if d.null() {
		d.canon = false
		return nil, nil
	}
	var b engine.Binding
	prev := ""
	for first := true; ; first = false {
		v, more, err := d.member(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		at := d.pos
		disp, err := d.str()
		if err != nil {
			return nil, err
		}
		val, err := tree.ParseValue(disp)
		if err != nil {
			d.pos = at
			return nil, d.fail("unparseable binding %s=%q: %v", v, disp, err)
		}
		if _, dup := b[v]; dup {
			d.pos = at
			return nil, d.fail("duplicate binding variable %q", v)
		}
		if b == nil {
			b = make(engine.Binding)
		}
		b[v] = val
		d.canon = d.canon && (first || prev < v)
		prev = v
	}
	d.canon = d.canon && len(b) > 0
	return b, nil
}
