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
func expandDerefs(outputs *tree.Store) error {
	e := &derefExpander{outputs: outputs, state: make([]uint8, outputs.Len())}
	for i, entry := range outputs.Entries() {
		if _, err := e.expandAt(i, entry.Name); err != nil {
			return err
		}
	}
	return nil
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
	if d, ok := n.Label.(derefVal); ok {
		i, ok := e.outputs.Index(d.Name)
		if !ok {
			return nil, fmt.Errorf("engine: dereferenced Skolem %s has no associated value", d.Name)
		}
		target, err := e.expandAt(i, d.Name)
		if err != nil {
			return nil, err
		}
		// Clone: the value may be inlined at several places.
		return target.Clone(), nil
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

// danglingRefs returns the Skolem-minted references in outputs that
// resolve neither in outputs nor in inputs. Plain (non-Skolem) names
// are assumed to refer to source data and are checked against the
// input store only.
func danglingRefs(outputs, inputs *tree.Store) []tree.Name {
	seen := map[string]bool{}
	var out []tree.Name
	for _, entry := range outputs.Entries() {
		entry.Tree.Walk(func(n *tree.Node) bool {
			name, ok := n.RefName()
			if !ok {
				return true
			}
			if outputs.Has(name) || (inputs != nil && inputs.Has(name)) {
				return true
			}
			if key := name.Key(); !seen[key] {
				seen[key] = true
				out = append(out, name)
			}
			return true
		})
	}
	return out
}
