// Package wrapper implements the import/export wrappers of the YAT
// runtime environment (Figure 6): SGML and relational data import
// into YAT trees, ODMG databases import and export, and HTML export.
// Wrappers are the only components that know source formats; the
// interpreter sees uniform named trees.
package wrapper

import (
	"fmt"
	"strconv"
	"strings"

	"yat/internal/pattern"
	"yat/internal/sgml"
	"yat/internal/tree"
)

// SGMLOptions configures SGML import.
type SGMLOptions struct {
	// InferTypes converts numeric and boolean PCDATA into typed
	// atoms (1995 → Int), so predicates like Year > 1975 apply.
	// Without it all character data imports as strings.
	InferTypes bool
	// DTD, when set, validates each document before import.
	DTD *sgml.DTD
}

// docBuilder is the sink of an SGML import: it builds each element's
// node as the scanner closes it, from one set of blocks for every
// document of the import. Each element becomes a node labeled with its
// tag, and #PCDATA an atom leaf under it. It boxes the first tags it
// meets once each: the lookup is a scan, and a DTD names a handful.
type docBuilder struct {
	blocks tree.Blocks
	infer  bool
	tags   [16]tree.Value
	ntags  int
	// open holds the nodes of the closed elements whose parent is
	// still open, the last child last.
	open []*tree.Node
}

// Element builds the node of one closed element, taking its children
// off the top of open.
func (d *docBuilder) Element(name string, children int, text string) {
	var kids []*tree.Node
	if children == 0 {
		kids = append(d.blocks.List(1), d.blocks.Node(pcdataValue(text, d.infer), nil))
	} else {
		top := len(d.open) - children
		kids = append(d.blocks.List(children), d.open[top:]...)
		d.open = d.open[:top]
	}
	d.open = append(d.open, d.blocks.Node(d.tag(name), kids))
}

// tag returns the element name as a label, boxed once per builder.
func (d *docBuilder) tag(name string) tree.Value {
	for _, t := range d.tags[:d.ntags] {
		if string(t.(tree.Symbol)) == name {
			return t
		}
	}
	t := tree.Value(tree.Symbol(name))
	if d.ntags < len(d.tags) {
		d.tags[d.ntags] = t
		d.ntags++
	}
	return t
}

func pcdataValue(text string, infer bool) tree.Value {
	if infer {
		if v, ok := inferAtom(strings.TrimSpace(text)); ok {
			return v
		}
	}
	return tree.String(text)
}

// inferAtom types trimmed PCDATA: a base-10 integer, a float written
// with a fraction or an exponent, or a boolean. strconv sees only text
// whose bytes could spell such a number, so a name costs no error.
func inferAtom(t string) (tree.Value, bool) {
	switch t {
	case "true", "false":
		return tree.Bool(t == "true"), true
	}
	digits, lexeme := numberBytes(t)
	if digits {
		// Out of range when it fails: then no float lexeme either.
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return tree.Int(i), true
		}
	} else if lexeme && strings.ContainsAny(t, ".eE") {
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return tree.Float(f), true
		}
	}
	return nil, false
}

// numberBytes reports whether t is an optional sign and decimal digits,
// what ParseInt accepts in base 10, and whether t could be a float
// literal: after an optional sign a digit or a point, then only hex
// digits, signs, points, underscores and x X p P. Every float ParseFloat
// accepts with a point or an e passes; Inf and NaN have neither.
func numberBytes(t string) (digits, lexeme bool) {
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" || !(t[0] == '.' || '0' <= t[0] && t[0] <= '9') {
		return false, false
	}
	digits = true
	for i := 0; i < len(t); i++ {
		switch c := t[i]; {
		case '0' <= c && c <= '9':
		case 'a' <= c && c <= 'f', 'A' <= c && c <= 'F', strings.IndexByte("+-._xXpP", c) >= 0:
			digits = false
		default:
			return false, false
		}
	}
	return digits, true
}

// ImportSGML parses and imports a set of SGML documents into a store,
// naming each by the given name. With a DTD set, non-conforming
// documents are rejected. Each document is read in one pass, its trees
// built as its elements close; validation runs on the same pass. The
// trees of all documents share blocks, and their string atoms share
// the documents' bytes: the store keeps each document's text alive.
// Like every tree a wrapper returns, they are immutable.
func ImportSGML(docs map[string]string, opts *SGMLOptions) (*tree.Store, error) {
	if opts == nil {
		opts = &SGMLOptions{InferTypes: true}
	}
	store := tree.NewStore()
	store.Grow(len(docs))
	d := &docBuilder{infer: opts.InferTypes}
	var sc sgml.Scanner
	// Deterministic import order.
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, name := range names {
		d.open = d.open[:0]
		if err := sc.Scan(docs[name], opts.DTD, d); err != nil {
			return nil, fmt.Errorf("wrapper: importing %s: %w", name, err)
		}
		store.Put(tree.PlainName(name), d.open[0])
	}
	return store, nil
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// DTDModel derives the YAT model of a DTD: one pattern per element,
// with #PCDATA positions as variables (the paper's Pbr pattern is the
// root pattern of the brochure DTD). Pattern names are "P" + element
// name; recursion in the DTD maps to pattern dereferencing.
func DTDModel(d *sgml.DTD) *pattern.Model {
	m := pattern.NewModel()
	for _, name := range d.Elements() {
		cm, _ := d.Element(name)
		node := pattern.NewSym(name)
		switch cm.Kind {
		case sgml.MPCData:
			node.Edges = append(node.Edges, pattern.One(
				pattern.NewVar(varNameFor(name), pattern.AnyDomain)))
		case sgml.MEmpty:
			// leaf
		case sgml.MAny:
			node.Edges = append(node.Edges, pattern.Star(
				pattern.NewVar(varNameFor(name), pattern.AnyDomain)))
		default:
			node.Edges = append(node.Edges, modelEdges(cm)...)
		}
		m.Add(pattern.NewPattern("P"+name, node))
	}
	return m
}

// modelEdges converts a content model into pattern edges.
func modelEdges(cm *sgml.Model) []pattern.Edge {
	switch cm.Kind {
	case sgml.MName:
		child := pattern.NewPatRef("P"+cm.Name, false)
		switch cm.Occ {
		case sgml.One:
			return []pattern.Edge{pattern.One(child)}
		default:
			// *, + and ? all weaken to the model's star indicator.
			return []pattern.Edge{pattern.Star(child)}
		}
	case sgml.MSeq:
		var out []pattern.Edge
		for _, it := range cm.Items {
			out = append(out, modelEdges(it)...)
		}
		if cm.Occ != sgml.One {
			// A repeated group weakens to a star over each member.
			for i := range out {
				out[i].Occ = pattern.OccStar
			}
		}
		return out
	case sgml.MChoice:
		// A choice weakens to a star over the alternatives (the model
		// layer has unions at pattern level, not edge level).
		var out []pattern.Edge
		for _, it := range cm.Items {
			es := modelEdges(it)
			for i := range es {
				es[i].Occ = pattern.OccStar
			}
			out = append(out, es...)
		}
		return out
	case sgml.MPCData:
		return []pattern.Edge{pattern.One(pattern.NewVar("Data", pattern.AnyDomain))}
	}
	return nil
}

// varNameFor capitalizes an element name into a variable name.
func varNameFor(elem string) string {
	if elem == "" {
		return "X"
	}
	return strings.ToUpper(elem[:1]) + elem[1:]
}
