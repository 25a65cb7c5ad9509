package engine

import (
	"fmt"

	"yat/internal/tree"
)

// expandDerefs performs the end-of-run dereferencing pass (§3.1:
// "dereferenciation is handled at the end of rules processing"):
// every placeholder node left by a ^P(args) head leaf is replaced by
// the value bound to that Skolem identity. A Skolem that was
// dereferenced but never defined is an error ("it requires that the
// value associated to s1 exists"), as is a dynamic cycle — the
// static safety check rules out the latter for accepted programs, but
// the guard is kept as defence in depth.
//
// With a non-nil inputs store the pass also returns the dangling
// references: the Skolem-minted references in outputs that resolve
// neither in outputs nor in inputs (plain names are assumed to refer to
// source data and are checked against inputs only). Each is listed at
// its first occurrence in preorder over the final trees in entry order:
// an inlined value is expanded, and its references visited, exactly
// where it lands in the first tree that inlines it, and an entry
// expanded before is one whose references were all visited already.
//
// An inlined value is the target's own tree, not a copy: an entry
// expands before any tree inlines it and is not walked again, so the
// pass writes only placeholders' parents, never a shared subtree.
func expandDerefs(outputs, inputs *tree.Store) ([]tree.Name, error) {
	e := &derefExpander{outputs: outputs, inputs: inputs, state: make([]uint8, outputs.Len())}
	for i, entry := range outputs.Entries() {
		if _, err := e.expandAt(i, entry.Name); err != nil {
			return nil, err
		}
	}
	return e.dangling, nil
}

const (
	derefInProgress uint8 = 1
	derefDone       uint8 = 2
)

// derefExpander keeps its progress per store position: the pass only
// replaces trees, so an entry keeps its position throughout.
type derefExpander struct {
	outputs *tree.Store
	state   []uint8
	// inputs, when set, turns on the dangling check: dangling lists what
	// it found, seen their keys.
	inputs   *tree.Store
	dangling []tree.Name
	seen     keySet
	buf      []byte
}

// checkRef records name if it is a dangling reference seen first here.
// The name is keyed once, for both stores and the seen set.
func (e *derefExpander) checkRef(name tree.Name) {
	e.buf = name.AppendBinaryKey(e.buf[:0])
	if _, ok := e.outputs.IndexKey(e.buf); ok {
		return
	}
	if _, ok := e.inputs.IndexKey(e.buf); ok {
		return
	}
	if _, fresh := e.seen.add(e.buf); fresh {
		e.dangling = append(e.dangling, name)
	}
}

// expandAt expands the entry at position i, bound to name.
func (e *derefExpander) expandAt(i int, name tree.Name) (*tree.Node, error) {
	n := e.outputs.Entries()[i].Tree
	switch e.state[i] {
	case derefInProgress:
		return nil, fmt.Errorf("engine: cyclic dereferencing through %s at run time", name)
	case derefDone:
		return n, nil
	}
	e.state[i] = derefInProgress
	expanded, err := e.expandNode(n)
	if err != nil {
		return nil, err
	}
	if expanded != n {
		// The root itself was a placeholder.
		e.outputs.Put(name, expanded)
	}
	e.state[i] = derefDone
	return expanded, nil
}

func (e *derefExpander) expandNode(n *tree.Node) (*tree.Node, error) {
	if d, ok := n.Label.(*derefVal); ok {
		i, ok := e.outputs.Index(d.Name)
		if !ok {
			return nil, fmt.Errorf("engine: dereferenced Skolem %s has no associated value", d.Name)
		}
		target, err := e.expandAt(i, d.Name)
		if err != nil {
			return nil, err
		}
		// Shared, not copied: a value inlined at several places is one
		// subtree, which nothing writes once it is expanded.
		return target, nil
	}
	if e.inputs != nil {
		if name, ok := n.RefName(); ok {
			e.checkRef(name)
		}
	}
	for i, c := range n.Children {
		expanded, err := e.expandNode(c)
		if err != nil {
			return nil, err
		}
		if expanded != c {
			n.Children[i] = expanded
		}
	}
	return n, nil
}
