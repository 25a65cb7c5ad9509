// Package tree implements the ground layer of the YAT data model:
// named, ordered trees whose nodes are labeled with constants, and
// whose leaves may reference other named trees.
//
// A ground YAT datum is a Node. Nodes carry a Value label (a symbol
// such as `class` or `car`, or an atom such as "Golf" or 1995) and an
// ordered list of children. Sharing and cycles are expressed with Ref
// labels that name another tree held in a Store, mirroring the `&name`
// notation of the paper.
package tree

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the concrete type behind a Value. Go has no sum
// types, so every Value implementation reports its Kind and the
// matching accessor on the concrete type carries the payload.
type Kind uint8

// The kinds of node labels.
const (
	KindSymbol Kind = iota // bare identifier: class, car, suppliers ...
	KindString             // quoted text atom: "Golf"
	KindInt                // integer atom: 1995
	KindFloat              // floating point atom: 3.14
	KindBool               // boolean atom: true / false
	KindRef                // reference to a named tree: &s1
	KindTree               // a whole subtree used as a value (Skolem arguments)
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSymbol:
		return "symbol"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	case KindTree:
		return "tree"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a node label. Implementations are Symbol, String, Int,
// Float, Bool and Ref. Values are immutable.
type Value interface {
	// Kind reports which concrete label this is.
	Kind() Kind
	// Display returns the label in YAT concrete syntax (strings are
	// quoted, symbols are bare, references are prefixed with &).
	Display() string
	// Equal reports whether the receiver and v are the same label.
	Equal(v Value) bool
}

// Symbol is a bare identifier label such as `class` or `supplier`.
type Symbol string

// String is a text atom label such as "Golf".
type String string

// Int is an integer atom label such as 1995.
type Int int64

// Float is a floating point atom label.
type Float float64

// Bool is a boolean atom label.
type Bool bool

// Kind implements Value.
func (Symbol) Kind() Kind { return KindSymbol }

// Kind implements Value.
func (String) Kind() Kind { return KindString }

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// Display implements Value.
func (s Symbol) Display() string { return string(s) }

// Display implements Value. The text is quoted Go-style so it can be
// re-parsed losslessly.
func (s String) Display() string {
	var buf [64]byte
	return string(strconv.AppendQuote(buf[:0], string(s)))
}

// Display implements Value.
func (i Int) Display() string { return strconv.FormatInt(int64(i), 10) }

// Display implements Value.
func (f Float) Display() string {
	var buf [32]byte
	return string(appendFloat(buf[:0], float64(f)))
}

// Display implements Value.
func (b Bool) Display() string { return strconv.FormatBool(bool(b)) }

// appendFloat is Float's display form, the one place its lexeme rule
// lives.
func appendFloat(dst []byte, f float64) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	// Guarantee a float lexeme (distinguishable from Int on re-parse):
	// digits alone gain ".0"; exponents, Inf ('I') and NaN ('N') stay.
	if !bytes.ContainsAny(dst[n:], ".eEIN") {
		dst = append(dst, ".0"...)
	}
	return dst
}

// AppendDisplay appends v's display form — the bytes of v.Display() —
// to dst, without building the intermediate strings: it is how the
// serving layer renders answers straight into its reply buffer. The
// composite forms (Float, Ref, TreeVal, Name.String, Node.String) are
// defined through the append form; String, Int and Bool pair
// strconv's own Append/Format twins.
//
// The function recurses into itself only — a reference's name and a
// tree's nodes are rendered inline rather than through
// Name.AppendString and Node.appendString. Escape analysis records a
// parameter that reaches another function's result through mutual
// recursion as escaping, and dst would then drag every caller's stack
// buffer to the heap (Store lookups among them).
func AppendDisplay(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Symbol:
		return append(dst, x...)
	case String:
		return strconv.AppendQuote(dst, string(x))
	case Int:
		return strconv.AppendInt(dst, int64(x), 10)
	case Float:
		return appendFloat(dst, float64(x))
	case Bool:
		return strconv.AppendBool(dst, bool(x))
	case Ref:
		dst = append(dst, '&')
		dst = append(dst, x.Name.Functor...)
		if x.Name.IsPlain() {
			return dst
		}
		dst = append(dst, '(')
		for i, a := range x.Name.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendDisplay(dst, a)
		}
		return append(dst, ')')
	case TreeVal:
		n := x.Root
		if n == nil {
			return append(dst, "<nil>"...)
		}
		dst = AppendDisplay(dst, n.Label)
		if len(n.Children) == 0 {
			return dst
		}
		dst = append(dst, " < "...)
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendDisplay(dst, TreeVal{Root: c})
		}
		return append(dst, " >"...)
	}
	// Value implementations outside this package (the engine's
	// dereference placeholder) only have the string form.
	return append(dst, v.Display()...)
}

// Equal implements Value.
func (s Symbol) Equal(v Value) bool { o, ok := v.(Symbol); return ok && o == s }

// Equal implements Value.
func (s String) Equal(v Value) bool { o, ok := v.(String); return ok && o == s }

// Equal implements Value.
func (i Int) Equal(v Value) bool { o, ok := v.(Int); return ok && o == i }

// Equal implements Value.
func (f Float) Equal(v Value) bool {
	o, ok := v.(Float)
	if !ok {
		return false
	}
	if math.IsNaN(float64(f)) && math.IsNaN(float64(o)) {
		return true
	}
	return o == f
}

// Equal implements Value.
func (b Bool) Equal(v Value) bool { o, ok := v.(Bool); return ok && o == b }

// Ref is a reference label naming another tree in a Store. It mirrors
// the `&name` leaves of the paper and is how sharing and cyclic
// structures are represented.
type Ref struct {
	Name Name
}

// Kind implements Value.
func (Ref) Kind() Kind { return KindRef }

// Display implements Value.
func (r Ref) Display() string {
	return string(AppendDisplay(make([]byte, 0, 64), r))
}

// Equal implements Value.
func (r Ref) Equal(v Value) bool {
	o, ok := v.(Ref)
	return ok && o.Name.Equal(r.Name)
}

// TreeVal wraps a whole subtree as a Value. It is how pattern
// variables bound to subtrees travel through Skolem arguments: the
// safe-recursive programs of the paper (Web3–Web5) invoke a Skolem
// functor on a subtree of the input.
type TreeVal struct {
	Root *Node
}

// Kind implements Value.
func (TreeVal) Kind() Kind { return KindTree }

// Display implements Value. The rendering is the concrete tree syntax,
// which is parseable and therefore injective up to tree equality.
func (t TreeVal) Display() string { return t.Root.String() }

// Equal implements Value (structural tree equality).
func (t TreeVal) Equal(v Value) bool {
	o, ok := v.(TreeVal)
	return ok && t.Root.Equal(o.Root)
}

// IsAtom reports whether v is an atomic data constant (string, int,
// float or bool) as opposed to a symbol or reference.
func IsAtom(v Value) bool {
	switch v.Kind() {
	case KindString, KindInt, KindFloat, KindBool:
		return true
	}
	return false
}

// Compare orders two values. The order is total: first by kind
// (symbol < string < int < float < bool < ref), then within a kind by
// natural order. Int and Float compare numerically against each other
// so that ordering criteria over mixed numeric data behave sensibly.
func Compare(a, b Value) int {
	an, aok := numeric(a)
	bn, bok := numeric(b)
	if aok && bok {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		// Equal numerics: fall through to kind tie-break so that
		// Int(1) and Float(1.0) still have a deterministic order.
	}
	if a.Kind() != b.Kind() {
		if a.Kind() < b.Kind() {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case Symbol:
		return strings.Compare(string(av), string(b.(Symbol)))
	case String:
		return strings.Compare(string(av), string(b.(String)))
	case Int:
		bv := b.(Int)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Float:
		bv := b.(Float)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Bool:
		bv := b.(Bool)
		switch {
		case !bool(av) && bool(bv):
			return -1
		case bool(av) && !bool(bv):
			return 1
		}
		return 0
	case Ref:
		return strings.Compare(av.Name.Key(), b.(Ref).Name.Key())
	case TreeVal:
		return CompareNode(av.Root, b.(TreeVal).Root)
	}
	return 0
}

func numeric(v Value) (float64, bool) {
	switch n := v.(type) {
	case Int:
		return float64(n), true
	case Float:
		return float64(n), true
	}
	return 0, false
}

// EqualValues reports semantic equality: structural label equality,
// extended with cross-kind numeric equality (Int 1 equals Float 1.0).
// Comparison predicates use this; Compare deliberately tie-breaks
// equal numerics of different kinds so sorting stays total and
// deterministic.
func EqualValues(a, b Value) bool {
	if a.Equal(b) {
		return true
	}
	an, aok := numeric(a)
	bn, bok := numeric(b)
	return aok && bok && an == bn
}

// AtomString extracts the text of a String value, or the display form
// of any other atom. It is the conversion used by external functions
// such as data_to_string.
func AtomString(v Value) string {
	if s, ok := v.(String); ok {
		return string(s)
	}
	return v.Display()
}
