package compose

import (
	"fmt"
	"strconv"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Instantiate specializes a general program onto a specific pattern
// (§4.1): the rules whose bodies the pattern instantiates are
// partially evaluated against it, dereferenced Skolem invocations are
// expanded recursively (with fresh variable renaming), and whatever
// cannot be resolved statically — external functions on variables,
// referenced patterns — remains in the derived rule's body. The
// result reproduces the WebCar derivation. The model, when not nil,
// supplies extra pattern definitions (e.g. the schema the input pattern
// comes from), merged with the program's declared models.
func Instantiate(prog *yatl.Program, input *pattern.Pattern, model *pattern.Model) (*yatl.Program, error) {
	ev := newEvaluator(prog, nil, model, engine.NewRegistry())
	out := &yatl.Program{Name: prog.Name + "_" + input.Name}
	for _, m := range prog.Models {
		out.Models = append(out.Models, &yatl.ModelDecl{Name: m.Name, Model: m.Model.Clone()})
	}
	// Embed the extra environment (the schema the pattern comes from)
	// so the derived program is self-contained: its reference-typed
	// join variables and rule-hierarchy comparisons resolve at run
	// time without the caller re-supplying the model.
	if model != nil {
		out.Models = append(out.Models, &yatl.ModelDecl{Name: "Schema" + input.Name, Model: model.Clone()})
	}
	for bi, branch := range input.Union {
		suffix := ""
		if len(input.Union) > 1 {
			suffix = "_" + strconv.Itoa(bi+1)
		}
		rules, err := ev.deriveForInput(input.Name, branch, suffix)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, rules...)
	}
	if len(out.Rules) == 0 {
		return nil, fmt.Errorf("compose: no rule of %s matches pattern %s", prog.Name, input.Name)
	}
	return out, nil
}

// Combine merges several programs into one (§4.2). Rules keep their
// declarativity: the interpreter's hierarchy dispatches conflicting
// rules most-specific-first at run time. Duplicate rule names are
// suffixed.
func Combine(name string, progs ...*yatl.Program) *yatl.Program {
	out := &yatl.Program{Name: name}
	seenRule := map[string]int{}
	seenModel := map[string]bool{}
	for _, p := range progs {
		for _, m := range p.Models {
			if seenModel[m.Name] {
				continue
			}
			seenModel[m.Name] = true
			out.Models = append(out.Models, &yatl.ModelDecl{Name: m.Name, Model: m.Model.Clone()})
		}
		for _, r := range p.Rules {
			c := r.Clone()
			if n := seenRule[c.Name]; n > 0 {
				seenRule[c.Name] = n + 1
				c.Name = c.Name + "_" + strconv.Itoa(n+1)
			} else {
				seenRule[c.Name] = 1
			}
			out.Rules = append(out.Rules, c)
		}
		out.Orders = append(out.Orders, p.Orders...)
	}
	return out
}

// evaluator carries the state of one symbolic evaluation.
type evaluator struct {
	prog  *yatl.Program
	env   *pattern.Model
	reg   *engine.Registry
	match *symMatcher
	// groups orders the rules per Skolem functor, most specific
	// first, reusing the §4.2 hierarchy.
	groups       map[string][]*yatl.Rule
	functorOrder []string
	blocks       map[string][]string
	// producers maps a functor of the *first* program to its rules
	// during composition; references to producer identities resolve
	// through the producer's head tree and splice their Skolem
	// arguments.
	producers map[string][]*yatl.Rule

	freshCounter int
}

// newEvaluator prepares the symbolic evaluation of prog's rules: its
// models merged with the extra model (nil for none), external calls
// on constant arguments evaluated through reg.
func newEvaluator(prog *yatl.Program, producers map[string][]*yatl.Rule, model *pattern.Model, reg *engine.Registry) *evaluator {
	env := pattern.NewModel()
	for _, m := range prog.Models {
		env = env.Merge(m.Model)
	}
	if model != nil {
		env = env.Merge(model)
	}
	ev := &evaluator{
		prog:      prog,
		env:       env,
		reg:       reg,
		match:     &symMatcher{model: env},
		groups:    map[string][]*yatl.Rule{},
		blocks:    map[string][]string{},
		producers: producers,
	}
	h := engine.BuildHierarchy(prog, env)
	ev.groups = h.Groups
	ev.functorOrder = h.FunctorOrder
	ev.blocks = h.Blocks
	return ev
}

// fresh returns a variable name not used in the current derivation.
func (ev *evaluator) fresh(base string, used map[string]bool) string {
	name := base
	for i := 1; used[name]; i++ {
		name = base + strconv.Itoa(i)
	}
	used[name] = true
	return name
}

// derivation accumulates the residual parts of one derived rule.
type derivation struct {
	used     map[string]bool
	lets     []yatl.Let
	preds    []yatl.Pred
	bodies   []yatl.BodyPattern
	bodySeen map[string]bool
}

func newDerivation() *derivation {
	return &derivation{used: map[string]bool{}, bodySeen: map[string]bool{}}
}

func (d *derivation) addBody(bp yatl.BodyPattern) {
	key := bp.Var + "=" + bp.Tree.String()
	if d.bodySeen[key] {
		return
	}
	d.bodySeen[key] = true
	d.bodies = append(d.bodies, bp)
}

// deriveForInput derives the specialized rules for one input pattern
// branch: per functor group, the most specific matching rules are
// partially evaluated against the branch.
func (ev *evaluator) deriveForInput(inputName string, branch *pattern.PTree, suffix string) ([]*yatl.Rule, error) {
	// The derived body is a clone of the branch; symbolic matching
	// runs against the clone so that bound fragments are nodes of the
	// derived body and can be rewritten in place (reference leaves
	// become join variables).
	body := branch.Clone()
	var derived []*yatl.Rule
	blocked := map[string]bool{}
	for _, functor := range ev.functorOrder {
		for _, rule := range ev.groups[functor] {
			if blocked[rule.Name] || len(rule.Body) != 1 {
				continue
			}
			group := ev.match.match(rule.Body[0].Tree, body)
			if len(group) == 0 {
				continue
			}
			for _, name := range ev.blocks[rule.Name] {
				blocked[name] = true
			}
			d := newDerivation()
			for _, v := range body.Vars() {
				d.used[v] = true
			}
			d.used[inputName] = true
			// The rule's body variable binds the input's name.
			idFrag := pattern.NewVar(inputName, pattern.AnyDomain)
			for i := range group {
				nb := group[i].clone()
				nb[rule.Body[0].Var] = symVal{frag: idFrag}
				group[i] = nb
			}
			head, args, err := ev.applyRuleDepth(rule, group, d, 0)
			if err != nil {
				return nil, fmt.Errorf("compose: instantiating rule %s on %s: %w", rule.Name, inputName, err)
			}
			if head == nil {
				continue // all alternatives statically filtered out
			}
			// Each derived rule owns a snapshot of the (possibly
			// rewritten) body so later derivations — and user
			// customization — cannot mutate it through aliasing.
			newRule := &yatl.Rule{
				Name:  rule.Name + "_" + inputName + suffix,
				Head:  yatl.Head{Functor: rule.Head.Functor, Args: args, Tree: head},
				Body:  append([]yatl.BodyPattern{{Var: inputName, Tree: body.Clone()}}, d.bodies...),
				Lets:  d.lets,
				Preds: append(substPreds(rule.Preds, group, d), d.preds...),
			}
			derived = append(derived, newRule)
		}
	}
	return derived, nil
}

// substPreds residualizes the outer rule's predicates. Predicates
// whose operands all resolve to constants are evaluated statically in
// applyRule; here the variable-dependent ones are rewritten onto the
// input pattern's variables. The substitution uses the first
// alternative: rule variables referenced by predicates are bound
// outside star edges in every program we derive (a predicate over a
// star-bound variable would need per-alternative residuals, which
// YATL's flat predicate lists cannot express).
func substPreds(preds []yatl.Pred, group []symBinding, d *derivation) []yatl.Pred {
	if len(preds) == 0 || len(group) == 0 {
		return nil
	}
	b := group[0]
	var out []yatl.Pred
	for _, p := range preds {
		if p.IsCall() {
			if _, allConst := constArgs(p.Args, b); allConst {
				continue // decided statically in evalLetsAndPreds
			}
			args, ok := substOperands(p.Args, b)
			if ok {
				out = append(out, yatl.Pred{Call: p.Call, Args: args})
			}
			continue
		}
		_, lConst := constOperand(p.Left, b)
		_, rConst := constOperand(p.Right, b)
		if lConst && rConst {
			continue // decided statically in evalLetsAndPreds
		}
		left, lok := substOperand(p.Left, b)
		right, rok := substOperand(p.Right, b)
		if lok && rok {
			out = append(out, yatl.Pred{Left: left, Op: p.Op, Right: right})
		}
	}
	return out
}

func substOperands(ops []yatl.Operand, b symBinding) ([]yatl.Operand, bool) {
	out := make([]yatl.Operand, len(ops))
	for i, o := range ops {
		so, ok := substOperand(o, b)
		if !ok {
			return nil, false
		}
		out[i] = so
	}
	return out, true
}

// substOperand maps a rule operand through the binding: constants
// stay, bound variables become the fragment's variable or constant.
func substOperand(o yatl.Operand, b symBinding) (yatl.Operand, bool) {
	if !o.IsVar {
		return o, true
	}
	v, ok := b[o.Var]
	if !ok {
		return yatl.Operand{}, false
	}
	switch l := v.frag.Label.(type) {
	case pattern.Var:
		if len(v.frag.Edges) == 0 {
			return yatl.VarOperand(l.Name), true
		}
	case pattern.Const:
		if len(v.frag.Edges) == 0 {
			return yatl.ConstOperand(l.Value), true
		}
	}
	return yatl.Operand{}, false
}

// evalLetsAndPreds processes one alternative's lets and constant
// predicates.
func (ev *evaluator) evalLetsAndPreds(rule *yatl.Rule, b symBinding, d *derivation) (symBinding, bool, error) {
	b = b.clone()
	for _, l := range rule.Lets {
		consts, allConst := constArgs(l.Args, b)
		if allConst {
			val, typed, err := ev.reg.Call(l.Func, consts)
			if err != nil || !typed {
				// The alternative cannot pass the §3.1 type filter.
				return nil, false, nil
			}
			b[l.Var] = symVal{frag: pattern.NewConst(val)}
			continue
		}
		// Residual let with a fresh result variable.
		args, ok := substOperands(l.Args, b)
		if !ok {
			return nil, false, nil
		}
		freshVar := ev.fresh(l.Var, d.used)
		d.lets = append(d.lets, yatl.Let{Var: freshVar, Func: l.Func, Args: args})
		b[l.Var] = symVal{frag: pattern.NewVar(freshVar, pattern.AnyDomain)}
	}
	for _, p := range rule.Preds {
		if p.IsCall() {
			consts, allConst := constArgs(p.Args, b)
			if !allConst {
				continue // residualized by substPreds
			}
			res, typed, err := ev.reg.CallBool(p.Call, consts)
			if err != nil || !typed || !res {
				return nil, false, nil
			}
			continue
		}
		lv, lok := constOperand(p.Left, b)
		rv, rok := constOperand(p.Right, b)
		if !lok || !rok {
			continue // residualized by substPreds
		}
		if ok, _ := p.Op.Holds(lv, rv); !ok {
			return nil, false, nil
		}
	}
	return b, true, nil
}

func constArgs(ops []yatl.Operand, b symBinding) ([]tree.Value, bool) {
	out := make([]tree.Value, len(ops))
	for i, o := range ops {
		v, ok := constOperand(o, b)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

func constOperand(o yatl.Operand, b symBinding) (tree.Value, bool) {
	if !o.IsVar {
		return o.Const, true
	}
	v, ok := b[o.Var]
	if !ok {
		return nil, false
	}
	if c, isConst := v.frag.Label.(pattern.Const); isConst && len(v.frag.Edges) == 0 {
		return c.Value, true
	}
	return nil, false
}
