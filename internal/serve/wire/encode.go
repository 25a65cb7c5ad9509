package wire

import (
	"encoding/json"
	"slices"
	"strconv"
	"unicode/utf8"

	"yat/internal/mediator"
	"yat/internal/tree"
)

// AppendAskResponse appends the POST /ask reply — the compact JSON of
// an AskResponse plus the newline a json.Encoder ends a document with —
// to dst, rendering straight from the answer trees: no AskAnswer
// values, no binding maps, no display strings. An answer relayed from a
// remote child (DecodeAskResponse) is not even rendered: the members
// the child wrote are forwarded as they came. keyed adds each answer's
// merge key (?keys=1).
//
// The bytes are exactly json.Marshal(AskResponse{…}) + "\n" for the
// same answers — for a relayed answer, over the display strings its
// child sent: field order, omitempty, binding keys sorted, and
// encoding/json's string escaping (HTML-safe, U+2028/9, U+FFFD for
// invalid UTF-8). That identity is the wire contract — every decoder
// of the struct decodes this — and the differential and fuzz tests
// hold it against encoding/json itself.
func AppendAskResponse(dst []byte, generation int64, answers []mediator.Answer, keyed bool) []byte {
	// One display form at a time is rendered here, then escaped into
	// dst; it outgrows the stack only for unusually large values.
	var scratchBuf [256]byte
	scratch := scratchBuf[:0]
	var varsBuf [8]string

	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendInt(dst, generation, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(answers)), 10)
	dst = append(dst, `,"answers":[`...)
	for i := range answers {
		a := &answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		if members := a.WireMembers(); members != "" {
			// Relayed from a child whose reply DecodeAskResponse read: it
			// checked that these are the bytes the other branch writes.
			dst = append(dst, members...)
		} else {
			dst = append(dst, `"name":`...)
			scratch = a.Name.AppendString(scratch[:0])
			dst = appendJSONString(dst, scratch)
			if len(a.Binding) > 0 {
				vars := varsBuf[:0]
				for v := range a.Binding {
					vars = append(vars, v)
				}
				slices.Sort(vars)
				dst = append(dst, `,"binding":{`...)
				for j, v := range vars {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendJSONString(dst, v)
					dst = append(dst, ':')
					scratch = tree.AppendDisplay(scratch[:0], a.Binding[v])
					dst = appendJSONString(dst, scratch)
				}
				dst = append(dst, '}')
			}
		}
		if keyed {
			if scratch = a.AppendMergeKey(scratch[:0]); len(scratch) > 0 {
				dst = append(dst, `,"key":`...)
				dst = appendJSONString(dst, scratch)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// AppendProfile appends reply, an AppendAskResponse reply, to dst with
// the profile added (an explained ask): the bytes of
// json.Marshal(AskResponse{…, Profile: profile}) + "\n". profile must be
// valid JSON (it is a marshaled trace.Document); one that is not is
// left out rather than corrupting the reply.
func AppendProfile(dst, reply []byte, profile json.RawMessage) []byte {
	// Marshaling the RawMessage compacts and HTML-escapes it exactly as
	// marshaling the struct field does.
	p, err := json.Marshal(profile)
	if err != nil || len(profile) == 0 {
		return append(dst, reply...)
	}
	dst = append(dst, reply[:len(reply)-len("}\n")]...)
	dst = append(dst, `,"profile":`...)
	dst = append(dst, p...)
	return append(dst, "}\n"...)
}

// AppendAskRequest appends the POST /ask body of req to dst: exactly
// json.Marshal(req).
func AppendAskRequest(dst []byte, req AskRequest) []byte {
	dst = append(dst, `{"pattern":`...)
	dst = appendJSONString(dst, req.Pattern)
	if len(req.Functors) > 0 {
		dst = append(dst, `,"functors":[`...)
		for i, f := range req.Functors {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, f)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes with HTML escaping on (its default): `"` and
// `\`, control bytes, `<`, `>`, `&`, U+2028 and U+2029 are escaped and
// each invalid UTF-8 byte becomes U+FFFD.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
