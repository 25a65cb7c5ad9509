// Package yatl defines the abstract syntax of YATL, the YAT
// conversion language (§3 of the paper), together with a concrete
// text syntax, parser and printer.
//
// A program is a set of rules. Each rule has a head — a single
// pattern whose name is an explicit Skolem functor with arguments —
// and a body made of input patterns, boolean predicates and external
// function calls:
//
//	rule Sup {
//	  head Psup(SN) = class -> supplier < -> name -> SN,
//	                                       -> city -> C, -> zip -> Z >
//	  from Pbr = brochure < -> number -> Num, -> title -> T,
//	                        -> model -> Year, -> desc -> D,
//	                        -> spplrs -*> supplier < -> name -> SN,
//	                                                  -> address -> Add > >
//	  where Year > 1975
//	  let C = city(Add)
//	  let Z = zip(Add)
//	}
//
// The paper's graphical notation maps to text as follows: the
// occurrence indicators are the arrows `->` (exactly one), `-*>`
// (star), `-{}>` (grouping with duplicate elimination), `-[v1,v2]>`
// (ordered grouping) and `-#I>` (index edges); dereferenced pattern
// names are written `^P(args)` and references `&P(args)`; identifiers
// starting with an upper-case letter are variables, all others are
// symbol constants.
package yatl

import (
	"fmt"
	"strings"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// Pos is a source position in YATL concrete syntax (an alias of
// pattern.Pos so both packages speak the same coordinates). AST nodes
// built programmatically carry the zero Pos.
type Pos = pattern.Pos

// Program is a named set of rules plus optional model declarations
// and explicit rule-ordering constraints (§4.2 allows the user to
// enforce a hierarchy).
type Program struct {
	Name   string
	Rules  []*Rule
	Models []*ModelDecl
	Orders []Order // explicit "apply A before B" constraints
}

// ModelDecl is a named model declared or imported by a program.
type ModelDecl struct {
	Name  string
	Model *pattern.Model
	Pos   Pos
}

// Order is an explicit precedence constraint between two rules.
type Order struct {
	Before, After string
	Pos           Pos
}

// Rule is one YATL rule.
type Rule struct {
	Name      string
	Head      Head
	Body      []BodyPattern
	Preds     []Pred
	Lets      []Let
	Exception bool // exception rule: empty head, fires when nothing else matched
	Pos       Pos  // position of the rule name
}

// Head is the rule head: a Skolem functor with arguments naming the
// output pattern, and the pattern tree giving its structure.
type Head struct {
	Functor string
	Args    []pattern.Arg
	Tree    *pattern.PTree
	Pos     Pos // position of the functor
}

// BodyPattern is one input pattern of a rule body. Var is the pattern
// variable naming the matched input (bound to the input's identity);
// Domain optionally restricts the input to instances of a named
// pattern.
type BodyPattern struct {
	Var    string
	Domain string
	Tree   *pattern.PTree
	Pos    Pos // position of the pattern variable
}

// CmpOp is a comparison operator in a predicate.
type CmpOp uint8

// The comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the concrete syntax of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Holds decides `a op b`, the one spelling of comparison semantics the
// engine, its dead-rule analysis and the composer share: equality is
// tree.EqualValues, ordering is tree.Compare. known is false for a
// value that is none of the six operators, and ok is then false too.
func (op CmpOp) Holds(a, b tree.Value) (ok, known bool) {
	switch op {
	case OpEq:
		return tree.EqualValues(a, b), true
	case OpNe:
		return !tree.EqualValues(a, b), true
	case OpLt:
		return tree.Compare(a, b) < 0, true
	case OpLe:
		return tree.Compare(a, b) <= 0, true
	case OpGt:
		return tree.Compare(a, b) > 0, true
	case OpGe:
		return tree.Compare(a, b) >= 0, true
	}
	return false, false
}

// Operand is one side of a comparison or one argument of a call: a
// variable or a constant.
type Operand struct {
	IsVar bool
	Var   string
	Const tree.Value
}

// VarOperand returns a variable operand.
func VarOperand(name string) Operand { return Operand{IsVar: true, Var: name} }

// ConstOperand returns a constant operand.
func ConstOperand(v tree.Value) Operand { return Operand{Const: v} }

// Display renders the operand.
func (o Operand) Display() string {
	if o.IsVar {
		return o.Var
	}
	return o.Const.Display()
}

// Pred is a boolean condition filtering the variable bindings: either
// a comparison between two operands, or a boolean external function
// applied to operands (e.g. sameaddress(Add, C, Add2)).
type Pred struct {
	// Comparison form (Call == ""):
	Left  Operand
	Op    CmpOp
	Right Operand
	// Call form:
	Call string
	Args []Operand
	Pos  Pos // position of the predicate's first token
}

// IsCall reports whether the predicate is a boolean function call.
func (p Pred) IsCall() bool { return p.Call != "" }

// String renders the predicate in concrete syntax.
func (p Pred) String() string {
	if p.IsCall() {
		return p.Call + "(" + joinOperands(p.Args) + ")"
	}
	return p.Left.Display() + " " + p.Op.String() + " " + p.Right.Display()
}

// Let is an external function call computing a new binding:
// `let C = city(Add)`.
type Let struct {
	Var  string
	Func string
	Args []Operand
	Pos  Pos // position of the bound variable
}

// String renders the let clause.
func (l Let) String() string {
	return "let " + l.Var + " = " + l.Func + "(" + joinOperands(l.Args) + ")"
}

func joinOperands(ops []Operand) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.Display()
	}
	return strings.Join(parts, ", ")
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	c := &Rule{
		Name:      r.Name,
		Exception: r.Exception,
		Pos:       r.Pos,
		Head: Head{
			Functor: r.Head.Functor,
			Args:    append([]pattern.Arg(nil), r.Head.Args...),
			Pos:     r.Head.Pos,
		},
		Preds: append([]Pred(nil), r.Preds...),
		Lets:  make([]Let, len(r.Lets)),
	}
	if r.Head.Tree != nil {
		c.Head.Tree = r.Head.Tree.Clone()
	}
	for i, l := range r.Lets {
		c.Lets[i] = Let{Var: l.Var, Func: l.Func, Args: append([]Operand(nil), l.Args...), Pos: l.Pos}
	}
	for i := range c.Preds {
		c.Preds[i].Args = append([]Operand(nil), r.Preds[i].Args...)
	}
	for _, bp := range r.Body {
		c.Body = append(c.Body, BodyPattern{Var: bp.Var, Domain: bp.Domain, Tree: bp.Tree.Clone(), Pos: bp.Pos})
	}
	return c
}

// Vars returns every variable occurring in the rule (head, body,
// predicates, lets), in order of first occurrence.
func (r *Rule) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			if n != "" && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, a := range r.Head.Args {
		if a.IsVar {
			add(a.Var)
		}
	}
	if r.Head.Tree != nil {
		add(r.Head.Tree.Vars()...)
	}
	for _, bp := range r.Body {
		add(bp.Var)
		add(bp.Tree.Vars()...)
	}
	for _, p := range r.Preds {
		if p.IsCall() {
			for _, a := range p.Args {
				if a.IsVar {
					add(a.Var)
				}
			}
		} else {
			if p.Left.IsVar {
				add(p.Left.Var)
			}
			if p.Right.IsVar {
				add(p.Right.Var)
			}
		}
	}
	for _, l := range r.Lets {
		add(l.Var)
		for _, a := range l.Args {
			if a.IsVar {
				add(a.Var)
			}
		}
	}
	return out
}

// RenameVars returns a copy of the rule with every variable renamed
// through the mapping (unmapped variables are kept). Program
// instantiation uses this to avoid clashes when several copies of a
// rule are merged (§4.1: "the system must provide appropriate
// renaming of variables").
func (r *Rule) RenameVars(mapping map[string]string) *Rule {
	ren := func(v string) string {
		if n, ok := mapping[v]; ok {
			return n
		}
		return v
	}
	c := r.Clone()
	for i, a := range c.Head.Args {
		if a.IsVar {
			c.Head.Args[i].Var = ren(a.Var)
		}
	}
	if c.Head.Tree != nil {
		renameTree(c.Head.Tree, ren)
	}
	for i := range c.Body {
		c.Body[i].Var = ren(c.Body[i].Var)
		renameTree(c.Body[i].Tree, ren)
	}
	for i := range c.Preds {
		p := &c.Preds[i]
		if p.IsCall() {
			for j, a := range p.Args {
				if a.IsVar {
					p.Args[j].Var = ren(a.Var)
				}
			}
		} else {
			if p.Left.IsVar {
				p.Left.Var = ren(p.Left.Var)
			}
			if p.Right.IsVar {
				p.Right.Var = ren(p.Right.Var)
			}
		}
	}
	for i := range c.Lets {
		l := &c.Lets[i]
		l.Var = ren(l.Var)
		for j, a := range l.Args {
			if a.IsVar {
				l.Args[j].Var = ren(a.Var)
			}
		}
	}
	return c
}

func renameTree(t *pattern.PTree, ren func(string) string) {
	if t == nil {
		return
	}
	switch l := t.Label.(type) {
	case pattern.Var:
		t.Label = pattern.Var{Name: ren(l.Name), Domain: l.Domain}
	case pattern.PatRef:
		args := append([]pattern.Arg(nil), l.Args...)
		for i, a := range args {
			if a.IsVar {
				args[i].Var = ren(a.Var)
			}
		}
		t.Label = pattern.PatRef{Name: l.Name, Args: args, Ref: l.Ref}
	}
	for i := range t.Edges {
		e := &t.Edges[i]
		if e.Index != "" {
			e.Index = ren(e.Index)
		}
		for j, v := range e.OrderBy {
			e.OrderBy[j] = ren(v)
		}
		renameTree(e.To, ren)
	}
}

// String renders the rule in concrete syntax.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString("rule ")
	b.WriteString(r.Name)
	b.WriteString(" {\n")
	if r.Exception {
		b.WriteString("  exception\n")
	} else {
		b.WriteString("  head ")
		b.WriteString(r.Head.Functor)
		if len(r.Head.Args) > 0 {
			b.WriteByte('(')
			parts := make([]string, len(r.Head.Args))
			for i, a := range r.Head.Args {
				parts[i] = a.Display()
			}
			b.WriteString(strings.Join(parts, ", "))
			b.WriteByte(')')
		}
		b.WriteString(" = ")
		b.WriteString(r.Head.Tree.String())
		b.WriteByte('\n')
	}
	for _, bp := range r.Body {
		b.WriteString("  from ")
		b.WriteString(bp.Var)
		if bp.Domain != "" {
			b.WriteString(" : ")
			b.WriteString(bp.Domain)
		}
		b.WriteString(" = ")
		b.WriteString(bp.Tree.String())
		b.WriteByte('\n')
	}
	for _, p := range r.Preds {
		b.WriteString("  where ")
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	for _, l := range r.Lets {
		b.WriteString("  ")
		b.WriteString(l.String())
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

// Functors returns the set of Skolem functors defined by the program
// (head functors), in order of first occurrence.
func (p *Program) Functors() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if r.Exception {
			continue
		}
		if !seen[r.Head.Functor] {
			seen[r.Head.Functor] = true
			out = append(out, r.Head.Functor)
		}
	}
	return out
}

// Rule returns the rule with the given name.
func (p *Program) Rule(name string) (*Rule, bool) {
	for _, r := range p.Rules {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Model returns the declared model with the given name.
func (p *Program) Model(name string) (*pattern.Model, bool) {
	for _, m := range p.Models {
		if m.Name == name {
			return m.Model, true
		}
	}
	return nil, false
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name, Orders: append([]Order(nil), p.Orders...)}
	for _, r := range p.Rules {
		c.Rules = append(c.Rules, r.Clone())
	}
	for _, m := range p.Models {
		c.Models = append(c.Models, &ModelDecl{Name: m.Name, Model: m.Model.Clone()})
	}
	return c
}

// String renders the whole program in concrete syntax (parseable by
// Parse).
func (p *Program) String() string {
	var b strings.Builder
	b.WriteString("program ")
	b.WriteString(p.Name)
	b.WriteString("\n\n")
	for _, m := range p.Models {
		b.WriteString("model ")
		b.WriteString(m.Name)
		b.WriteString(" {\n")
		for _, pat := range m.Model.Patterns() {
			b.WriteString("  ")
			b.WriteString(pat.String())
			b.WriteByte('\n')
		}
		b.WriteString("}\n\n")
	}
	for _, o := range p.Orders {
		fmt.Fprintf(&b, "order %s before %s\n", o.Before, o.After)
	}
	if len(p.Orders) > 0 {
		b.WriteByte('\n')
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
