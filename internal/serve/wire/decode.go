package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/tree"
)

// DecodeError reports a document DecodeAskResponse, RelayAskResponse or
// DecodeAskRequest refused: JSON that is malformed or not shaped like
// the wire struct, a display form the tree parser rejects, or one of
// the refusals DecodeAskResponse lists.
type DecodeError struct {
	// Offset is the byte offset into the document the error was found at.
	Offset int
	Msg    string
	// request marks a refused AskRequest, which Error names as such.
	request bool
}

func (e *DecodeError) Error() string {
	doc := "ask reply"
	if e.request {
		doc = "ask request"
	}
	return fmt.Sprintf("%s, offset %d: %s", doc, e.Offset, e.Msg)
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
// The returned answers share one copy of data, one buffer of merge
// keys and one slab of producer forms; data itself is not retained.
// Every error is a *DecodeError.
func DecodeAskResponse(data []byte) (generation int64, answers []mediator.Answer, err error) {
	d := askDecoder{src: string(data)}
	return d.reply()
}

// RelayAskResponse is DecodeAskResponse for a federation parent that
// forwards the reply's answers and does nothing else with them. It
// accepts and refuses exactly what DecodeAskResponse does, with the
// same errors, and makes every check it makes — a display form is
// checked with tree.CheckName or tree.CheckValue, which run the
// parser's productions — but an answer whose members are in the
// encoder's own form and which carries its producer's merge key is
// not parsed: it comes back with a zero Name, a nil Binding and only
// those two forms, which is all wire.AppendAskResponse and the merge
// read. Any other answer is parsed as DecodeAskResponse parses it.
// Such answers must go nowhere but into AppendAskResponse.
func RelayAskResponse(data []byte) (generation int64, answers []mediator.Answer, err error) {
	d := askDecoder{src: string(data), relay: true}
	return d.reply()
}

// reply reads the whole reply.
func (d *askDecoder) reply() (generation int64, answers []mediator.Answer, err error) {
	// One copy of data (src), so that every name, variable, display form
	// and forwarded member below is a substring and not an allocation of
	// its own; one scratch allocation, big enough for all but unusually
	// large display forms, serves every unquote and re-escape.
	var scratch [2][256]byte
	d.unq, d.esc = scratch[0][:0], scratch[1][:0]
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
			// count is the reply's own only when it came first, as the
			// encoder writes it; else it is 0 and sizes nothing.
			err = d.answers(count)
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
	if count != int64(len(d.out)) {
		return 0, nil, d.fail("count is %d, the reply carries %d answers", count, len(d.out))
	}
	return generation, d.finish(), nil
}

// DecodeAskRequest reads a POST /ask body with no reflection. It takes
// exactly the bodies json.Unmarshal takes into an AskRequest, and reads
// the value json.Unmarshal reads: members in any order, a member name
// matched under case folding, the last of two members winning, null
// for a zero value (it leaves the pattern as it was and clears the
// functors), unknown members skipped. A functors array lands on the
// slice a previous one left, element by element, as encoding/json
// decodes it: a null element keeps what it lands on. data is read in
// place; what the request holds is copied out of it. Every error is a
// *DecodeError.
func DecodeAskRequest(data []byte) (req AskRequest, err error) {
	d := askDecoder{src: unsafe.String(unsafe.SliceData(data), len(data)), request: true}
	d.ws()
	if !d.null() {
		for first := true; ; first = false {
			key, more, err := d.member(first)
			if err != nil {
				return AskRequest{}, err
			}
			if !more {
				break
			}
			switch {
			case strings.EqualFold(key, "pattern"):
				if !d.null() {
					req.Pattern, err = d.ownStr()
				}
			case strings.EqualFold(key, "functors"):
				req.Functors, err = d.strs(req.Functors)
			default:
				err = d.skipValue()
			}
			if err != nil {
				return AskRequest{}, err
			}
		}
	}
	if d.ws(); d.pos != len(d.src) {
		return AskRequest{}, d.fail("trailing data after the request")
	}
	return req, nil
}

// strs reads a string array into dst, or null, which clears it.
func (d *askDecoder) strs(dst []string) ([]string, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.open('['); err != nil {
		return nil, err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.next(first, ']')
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		// encoding/json lengthens the slice within its capacity before it
		// grows it, so an element a shorter array cut off comes back.
		switch {
		case i < len(dst):
		case i < cap(dst):
			dst = dst[:i+1]
		default:
			dst = append(dst, "")
		}
		if !d.null() {
			if dst[i], err = d.ownStr(); err != nil {
				return nil, err
			}
		}
		i++
	}
	if i == 0 {
		return []string{}, nil
	}
	return dst[:i], nil
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
	// request marks the errors of DecodeAskRequest.
	request bool
	// canon is set at the start of each answer object and cleared by
	// anything inside it AppendAskResponse would have written otherwise.
	canon bool
	// unq and esc are scratch for unquoting a string literal and for
	// re-escaping its content to compare the two.
	unq, esc []byte

	// relay reads answers as RelayAskResponse does; formsUnchecked is the
	// mutant its test arms, which skips the display-form checks.
	relay, formsUnchecked bool
	// The answers read so far: their trees (none for a relayed one), and
	// in slots the producer's members and where its merge key ends in
	// keys, into which every key is unquoted end to end.
	out   []mediator.Answer
	slots []answerSlot
	keys  []byte
}

type answerSlot struct {
	forms  mediator.WireForms
	keyEnd int
}

// errEager is the relay's refusal of an answer: not in the encoder's
// form, carrying no key, or refused outright. Only the answer's eager
// reading says which, and with what error.
var errEager = errors.New("answer read eagerly")

func (d *askDecoder) fail(format string, args ...any) error {
	return &DecodeError{Offset: d.pos, Msg: fmt.Sprintf(format, args...), request: d.request}
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
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// str reads the string literal at pos and returns its content,
// unquoted exactly as encoding/json unquotes: an unpaired surrogate
// escape and each invalid UTF-8 byte become U+FFFD. A literal that is
// not appendJSONString of that content clears canon.
func (d *askDecoder) str() (string, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.unq = d.unquote(d.unq[:0], raw)
	if string(d.unq) == raw {
		return raw, nil
	}
	return string(d.unq), nil
}

// scratchStr is str for content the caller is done with before the
// next string is read: what had to be unquoted is returned in place,
// sharing d.unq's bytes, which the next unquote overwrites.
func (d *askDecoder) scratchStr() (string, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.unq = d.unquote(d.unq[:0], raw)
	return unsafe.String(unsafe.SliceData(d.unq), len(d.unq)), nil
}

// ownStr is str for content that outlives the document: a copy, never
// a substring of src.
func (d *askDecoder) ownStr() (string, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return strings.Clone(raw), err
	}
	// The content is unquoted into a buffer of its own, which the string
	// then owns: escapes only shorten a literal, bar invalid UTF-8.
	b := d.unquote(make([]byte, 0, len(raw)), raw)
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

// appendStr is str appending the content to dst.
func (d *askDecoder) appendStr(dst []byte) ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return append(dst, raw...), err
	}
	return d.unquote(dst, raw), nil
}

// unquote appends the content of raw, the literal scanString just
// read, to dst, and clears canon if the literal is not how
// appendJSONString writes that content.
func (d *askDecoder) unquote(dst []byte, raw string) []byte {
	start := len(dst)
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' && c < utf8.RuneSelf {
			run := i
			for i++; i < len(raw) && raw[i] != '\\' && raw[i] < utf8.RuneSelf; i++ {
			}
			dst = append(dst, raw[run:i]...)
			continue
		}
		switch {
		case c != '\\':
			r, size := utf8.DecodeRuneInString(raw[i:])
			dst = utf8.AppendRune(dst, r)
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
			dst = utf8.AppendRune(dst, r)
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
			dst = append(dst, c)
			i += 2
		}
	}
	if d.canon {
		d.esc = appendJSONString(d.esc[:0], dst[start:])
		d.canon = string(d.esc) == d.src[d.pos-len(raw)-2:d.pos]
	}
	return dst
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

// minAnswerLen is the length of the shortest answer a reply can carry,
// `{"name":"b"}`: a count claiming more answers than fit in what is left
// of the reply sizes nothing past that.
const minAnswerLen = len(`{"name":"b"}`)

// answers reads the answers array (or null); count sizes what it
// collects.
func (d *askDecoder) answers(count int64) error {
	if d.null() {
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	if n := min(count, int64((len(d.src)-d.pos)/minAnswerLen)); n > 0 {
		d.out = make([]mediator.Answer, 0, n)
		d.slots = make([]answerSlot, 0, n)
	}
	for first := true; ; first = false {
		if more, err := d.next(first, ']'); !more {
			return err
		}
		if err := d.answer(); err != nil {
			return err
		}
	}
}

// answer reads one answer object. A relay reads it in the encoder's
// form first, checking its display forms and building nothing; an
// answer that is not in that form, carries no merge key or is refused
// is read again from its '{', as the eager decoder reads it, so its
// trees — or the eager decoder's error — are what the reply gets.
func (d *askDecoder) answer() error {
	if d.relay {
		pos, depth, keys := d.pos, d.depth, len(d.keys)
		if d.readAnswer(true) == nil {
			return nil
		}
		d.pos, d.depth, d.keys = pos, depth, d.keys[:keys]
	}
	return d.readAnswer(false)
}

// readAnswer reads one answer object into out and slots; relay is
// answer's first reading, which refuses with errEager whatever it
// leaves to the eager one.
func (d *askDecoder) readAnswer(relay bool) error {
	var (
		name    string
		binding engine.Binding
		seen    uint8
	)
	d.canon = true
	start, nameAt, keyStart := d.pos, d.pos, len(d.keys)
	// The members to forward run from past the '{' to the end of the
	// name, or of the binding when one follows it.
	membersEnd := 0
	for first := true; ; first = false {
		k, more, err := d.member(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		before := seen
		if err = d.wireMember(k, answerMembers, &seen); err != nil {
			return err
		}
		switch k {
		case "name":
			d.canon = d.canon && before == 0
			nameAt = d.pos
			if relay {
				err = d.checkForm(tree.CheckName)
			} else {
				name, err = d.str()
			}
			membersEnd = d.pos
		case "binding":
			d.canon = d.canon && before == sawName // and nothing else
			binding, err = d.binding(relay)
			membersEnd = d.pos
		case "key":
			// The key is rendered again from its content, never forwarded:
			// how its literal is written decides nothing.
			canon := d.canon
			if d.canon = false; !d.null() {
				if d.keys == nil {
					// Every key of the reply fits in what is left of it, bar
					// invalid UTF-8, which unquotes longer.
					d.keys = make([]byte, 0, len(d.src)-d.pos)
				}
				d.keys, err = d.appendStr(d.keys)
			}
			d.canon = canon
		default:
			d.canon = false
			err = d.skipValue()
		}
		if err == nil && relay && !d.canon {
			err = errEager
		}
		if err != nil {
			return err
		}
	}
	var n tree.Name
	if relay {
		if seen&sawName == 0 || len(d.keys) == keyStart {
			return errEager
		}
	} else {
		var err error
		if n, err = tree.ParseName(name); err != nil {
			d.pos = nameAt
			return d.fail("unparseable answer name %q: %v", name, err)
		}
	}
	members := ""
	if d.canon && seen&sawName != 0 {
		members = d.src[start+1 : membersEnd]
	}
	d.out = append(d.out, mediator.Answer{Name: n, Binding: binding})
	d.slots = append(d.slots, answerSlot{forms: mediator.WireForms{Members: members}, keyEnd: len(d.keys)})
	return nil
}

// checkForm reads a relayed answer's display form and checks it, with
// tree.CheckName or tree.CheckValue, building nothing.
func (d *askDecoder) checkForm(check func(string) error) error {
	form, err := d.scratchStr()
	if err == nil && !d.formsUnchecked && check(form) != nil {
		err = errEager
	}
	return err
}

// binding reads one answer's binding object (or null), parsing each
// display form as it goes — or, for a relay, checking it. An empty one
// is nil, and never canonical: the encoder's omitempty leaves it out.
func (d *askDecoder) binding(relay bool) (engine.Binding, error) {
	if d.null() {
		d.canon = false
		return nil, nil
	}
	var b engine.Binding
	vars := 0
	prev := ""
	for first := true; ; first = false {
		v, more, err := d.member(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		// Strictly ascending variables are also distinct ones: a relay,
		// which builds no map, leaves the duplicates to the eager reading.
		d.canon = d.canon && (first || prev < v)
		prev = v
		vars++
		if relay {
			if !d.canon {
				return nil, errEager
			}
			if err := d.checkForm(tree.CheckValue); err != nil {
				return nil, err
			}
			continue
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
	}
	d.canon = d.canon && vars > 0
	return b, nil
}

// finish hands out the answers read, each with its producer's forms.
func (d *askDecoder) finish() []mediator.Answer {
	keys := string(d.keys)
	from := 0
	for i := range d.out {
		s := &d.slots[i]
		s.forms.Key, from = keys[from:s.keyEnd], s.keyEnd
		d.out[i] = mediator.RelayedAnswer(d.out[i].Name, d.out[i].Binding, &s.forms)
	}
	return d.out
}
