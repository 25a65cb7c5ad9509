// Package engine implements the YATL interpreter: the five-phase rule
// semantics of §3.1 (pattern matching, external functions, predicate
// filtering, Skolem evaluation, output construction), rule hierarchies
// (§4.2), the static safety check for cyclic programs (§3.4) and the
// final dereferencing pass.
package engine

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"yat/internal/tree"
)

// ParamType constrains one parameter of an external function. The
// zero value accepts any value.
type ParamType struct {
	Kinds []tree.Kind // empty: any
}

// Any accepts any value.
var Any = ParamType{}

// Atom accepts string, int, float and bool values.
var Atom = ParamType{Kinds: []tree.Kind{tree.KindString, tree.KindInt, tree.KindFloat, tree.KindBool}}

// Text accepts only string values.
var Text = ParamType{Kinds: []tree.Kind{tree.KindString}}

// Num accepts int and float values.
var Num = ParamType{Kinds: []tree.Kind{tree.KindInt, tree.KindFloat}}

// Sym accepts only symbol values.
var Sym = ParamType{Kinds: []tree.Kind{tree.KindSymbol}}

// Accepts reports whether v satisfies the parameter type.
func (p ParamType) Accepts(v tree.Value) bool {
	if len(p.Kinds) == 0 {
		return true
	}
	for _, k := range p.Kinds {
		if v.Kind() == k {
			return true
		}
	}
	return false
}

// IntType accepts only integer values.
var IntType = ParamType{Kinds: []tree.Kind{tree.KindInt}}

// BoolType accepts only boolean values.
var BoolType = ParamType{Kinds: []tree.Kind{tree.KindBool}}

// Func is a typed external function. The engine applies the type
// filter described in §3.1 ("external functions are typed ... a type
// filter is applied on the set of variable bindings before they are
// evaluated"): a binding whose arguments do not satisfy Params is
// silently dropped rather than raising an error. Result declares the
// type of the returned value; signature inference (§3.5) uses it to
// restrict the domains of let-bound variables.
type Func struct {
	Name   string
	Params []ParamType
	Result ParamType
	// Fn computes the function. A run passes every call's arguments in
	// one slice that it reuses for the next call, so Fn must not retain
	// args or write to it; the values in it are its own to keep.
	Fn func(args []tree.Value) (tree.Value, error)
}

// Registry holds the external functions and boolean predicates
// available to a program run (§5's "external functions/predicates
// processing" module).
type Registry struct {
	funcs map[string]Func
}

// NewRegistry returns a registry preloaded with the built-in
// functions used by the paper's examples (city, zip, sameaddress,
// data_to_string, attr_label) plus generic string/arithmetic helpers.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]Func)}
	for _, f := range builtins() {
		r.Register(f)
	}
	return r
}

// Register adds or replaces a function.
func (r *Registry) Register(f Func) { r.funcs[f.Name] = f }

// Lookup returns the function with the given name.
func (r *Registry) Lookup(name string) (Func, bool) {
	f, ok := r.funcs[name]
	return f, ok
}

// Fingerprint is a canonical description of the registry's surface:
// every function's name and type signature, sorted by name. Two
// registries with equal fingerprints expose the same callable names
// with the same type filters — the property the mediator's cache
// hashes rely on to detect that a Register between reloads may have
// changed what identical rule text computes. Function bodies cannot
// be fingerprinted, so replacing a function's implementation while
// keeping its signature is invisible here; Register a distinct name
// (or bump a version suffix) when that matters. A nil registry
// fingerprints as the default builtin set, matching how a run
// normalizes a nil Options.Registry.
func (r *Registry) Fingerprint() string {
	if r == nil {
		r = defaultRegistry()
	}
	names := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := r.funcs[n]
		b.WriteString(n)
		b.WriteByte('(')
		for i, p := range f.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(paramTypeKey(p))
		}
		b.WriteByte(')')
		b.WriteString(paramTypeKey(f.Result))
		b.WriteByte(';')
	}
	return b.String()
}

// paramTypeKey renders one parameter type canonically ("*" = any).
func paramTypeKey(p ParamType) string {
	if len(p.Kinds) == 0 {
		return "*"
	}
	parts := make([]string, len(p.Kinds))
	for i, k := range p.Kinds {
		parts[i] = k.String()
	}
	return strings.Join(parts, "|")
}

// defaultRegistry is the registry of every run given none: the
// builtins are stateless and a run only calls them, so one registry
// serves all runs.
var defaultRegistry = sync.OnceValue(NewRegistry)

// TypeCheck reports whether the arguments pass the function's type
// filter.
func (f Func) TypeCheck(args []tree.Value) bool {
	if len(args) != len(f.Params) {
		return false
	}
	for i, a := range args {
		if !f.Params[i].Accepts(a) {
			return false
		}
	}
	return true
}

// Call invokes the function after type filtering. The boolean result
// reports whether the type filter passed; err reports evaluation
// failure.
func (r *Registry) Call(name string, args []tree.Value) (val tree.Value, typed bool, err error) {
	f, ok := r.Lookup(name)
	if !ok {
		return nil, false, fmt.Errorf("engine: unknown external function %q", name)
	}
	if !f.TypeCheck(args) {
		return nil, false, nil
	}
	v, err := f.Fn(args)
	if err != nil {
		return nil, true, fmt.Errorf("engine: %s: %w", name, err)
	}
	return v, true, nil
}

// CallBool invokes a boolean predicate function.
func (r *Registry) CallBool(name string, args []tree.Value) (result, typed bool, err error) {
	v, typed, err := r.Call(name, args)
	if err != nil || !typed {
		return false, typed, err
	}
	b, ok := v.(tree.Bool)
	if !ok {
		return false, true, fmt.Errorf("engine: predicate %s returned non-boolean %s", name, v.Display())
	}
	return bool(b), true, nil
}

// ErrRaised is returned by the built-in raise function; the engine
// converts it into a run-time exception (§3.5's exception rule).
type ErrRaised struct {
	Msg string
}

func (e ErrRaised) Error() string { return "exception raised: " + e.Msg }

func builtins() []Func {
	return []Func{
		{
			// city("12 Bd Lenoir, 75005 Paris") = "Paris". The city is
			// the text after the zip code in the last comma-separated
			// segment.
			Name: "city", Params: []ParamType{Text}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				_, city, err := splitAddress(string(args[0].(tree.String)))
				if err != nil {
					return nil, err
				}
				return tree.String(city), nil
			},
		},
		{
			// zip("12 Bd Lenoir, 75005 Paris") = 75005.
			Name: "zip", Params: []ParamType{Text}, Result: IntType,
			Fn: func(args []tree.Value) (tree.Value, error) {
				zip, _, err := splitAddress(string(args[0].(tree.String)))
				if err != nil {
					return nil, err
				}
				return tree.Int(zip), nil
			},
		},
		{
			// sameaddress(Add, City, Add2) reconciles the SGML address
			// with the relational (city, address) pair: true when the
			// normalized street+city agree.
			Name: "sameaddress", Params: []ParamType{Text, Text, Text}, Result: BoolType,
			Fn: func(args []tree.Value) (tree.Value, error) {
				full := string(args[0].(tree.String))
				city := string(args[1].(tree.String))
				street := string(args[2].(tree.String))
				return tree.Bool(addressMatches(full, city, street)), nil
			},
		},
		{
			// data_to_string renders any atomic datum as a string
			// (rule Web2).
			Name: "data_to_string", Params: []ParamType{Any}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(tree.AtomString(args[0])), nil
			},
		},
		{
			// attr_label(name) = "name: " — the attribute caption used
			// by the Web rules.
			Name: "attr_label", Params: []ParamType{Sym}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(string(args[0].(tree.Symbol)) + ": "), nil
			},
		},
		{
			Name: "concat", Params: []ParamType{Text, Text}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(string(args[0].(tree.String)) + string(args[1].(tree.String))), nil
			},
		},
		{
			Name: "lower", Params: []ParamType{Text}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(strings.ToLower(string(args[0].(tree.String)))), nil
			},
		},
		{
			Name: "upper", Params: []ParamType{Text}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(strings.ToUpper(string(args[0].(tree.String)))), nil
			},
		},
		{
			Name: "length", Params: []ParamType{Text}, Result: IntType,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.Int(int64(len(args[0].(tree.String)))), nil
			},
		},
		{
			Name: "add", Params: []ParamType{Num, Num}, Result: Num,
			Fn: arith(func(a, b float64) float64 { return a + b }),
		},
		{
			Name: "sub", Params: []ParamType{Num, Num}, Result: Num,
			Fn: arith(func(a, b float64) float64 { return a - b }),
		},
		{
			Name: "mul", Params: []ParamType{Num, Num}, Result: Num,
			Fn: arith(func(a, b float64) float64 { return a * b }),
		},
		{
			Name: "to_string", Params: []ParamType{Any}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return tree.String(tree.AtomString(args[0])), nil
			},
		},
		{
			Name: "to_int", Params: []ParamType{Atom}, Result: IntType,
			Fn: func(args []tree.Value) (tree.Value, error) {
				switch v := args[0].(type) {
				case tree.Int:
					return v, nil
				case tree.Float:
					return tree.Int(int64(v)), nil
				case tree.Bool:
					if v {
						return tree.Int(1), nil
					}
					return tree.Int(0), nil
				case tree.String:
					var n int64
					var neg bool
					s := strings.TrimSpace(string(v))
					if strings.HasPrefix(s, "-") {
						neg = true
						s = s[1:]
					}
					if s == "" {
						return nil, fmt.Errorf("to_int: empty string")
					}
					for _, c := range s {
						if c < '0' || c > '9' {
							return nil, fmt.Errorf("to_int: %q is not a number", string(v))
						}
						n = n*10 + int64(c-'0')
					}
					if neg {
						n = -n
					}
					return tree.Int(n), nil
				}
				return nil, fmt.Errorf("to_int: unsupported kind")
			},
		},
		{
			// raise aborts the conversion with a run-time exception —
			// the action of the §3.5 exception rule.
			Name: "raise", Params: []ParamType{Any}, Result: Any,
			Fn: func(args []tree.Value) (tree.Value, error) {
				return nil, ErrRaised{Msg: args[0].Display()}
			},
		},
	}
}

func arith(op func(a, b float64) float64) func([]tree.Value) (tree.Value, error) {
	return func(args []tree.Value) (tree.Value, error) {
		a, aInt := asNum(args[0])
		b, bInt := asNum(args[1])
		res := op(a, b)
		if aInt && bInt {
			return tree.Int(int64(res)), nil
		}
		return tree.Float(res), nil
	}
}

func asNum(v tree.Value) (float64, bool) {
	switch n := v.(type) {
	case tree.Int:
		return float64(n), true
	case tree.Float:
		return float64(n), false
	}
	return 0, false
}

// splitAddress parses "street, ZIP City" into its zip and city parts.
func splitAddress(addr string) (zip int64, city string, err error) {
	i := strings.LastIndex(addr, ",")
	if i < 0 {
		return 0, "", fmt.Errorf("address %q has no comma-separated locality", addr)
	}
	locality := strings.TrimSpace(addr[i+1:])
	j := strings.IndexByte(locality, ' ')
	if j < 0 {
		return 0, "", fmt.Errorf("address %q has no zip/city pair", addr)
	}
	for _, c := range locality[:j] {
		if c < '0' || c > '9' {
			return 0, "", fmt.Errorf("address %q has malformed zip %q", addr, locality[:j])
		}
		zip = zip*10 + int64(c-'0')
	}
	return zip, strings.TrimSpace(locality[j+1:]), nil
}

// addressMatches reconciles the SGML full address against the
// relational (city, street) pair. Each side is normalized into a buffer
// on the stack; only an address longer than it allocates.
func addressMatches(full, city, street string) bool {
	var fb, sb, cb [96]byte
	nf := appendNormalAddr(fb[:0], full)
	return bytes.Contains(nf, appendNormalAddr(sb[:0], street)) && bytes.Contains(nf, appendNormalAddr(cb[:0], city))
}

// appendNormalAddr appends s lower-cased, without its spaces, commas
// and points, to dst.
func appendNormalAddr(dst []byte, s string) []byte {
	for _, c := range s {
		switch c = unicode.ToLower(c); c {
		case ' ', ',', '.':
		default:
			dst = utf8.AppendRune(dst, c)
		}
	}
	return dst
}
