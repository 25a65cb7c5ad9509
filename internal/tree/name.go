package tree

import (
	"slices"
	"sort"
)

// Name identifies a tree in a Store. Plain names (b1, s1, Rsuppliers)
// have an empty Args slice; Skolem-generated names carry the functor
// and the argument values that minted them, e.g. Psup("VW center").
type Name struct {
	Functor string
	Args    []Value
}

// PlainName returns a Name with no Skolem arguments.
func PlainName(functor string) Name { return Name{Functor: functor} }

// SkolemName returns a Name minted by a Skolem functor application.
func SkolemName(functor string, args ...Value) Name {
	return Name{Functor: functor, Args: args}
}

// IsPlain reports whether the name has no Skolem arguments.
func (n Name) IsPlain() bool { return len(n.Args) == 0 }

// String renders the name in concrete syntax: `Psup("VW center")`.
func (n Name) String() string {
	if n.IsPlain() {
		return n.Functor
	}
	return string(n.AppendString(make([]byte, 0, 64)))
}

// AppendString appends the concrete syntax of the name — the bytes of
// String() — to dst.
func (n Name) AppendString(dst []byte) []byte {
	dst = append(dst, n.Functor...)
	if n.IsPlain() {
		return dst
	}
	dst = append(dst, '(')
	for i, a := range n.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendDisplay(dst, a)
	}
	return append(dst, ')')
}

// Key returns the name's canonical text form, the one that orders and
// identifies names wherever the order or the text is observed: answer
// order, SortedEntries, Ref comparison, ODMG OIDs and wire merge keys.
// It tags the kind of the top-level arguments only: P(&Q(1)) has one
// key whether the 1 is an int or a symbol. Identity — Equal, the
// Store's index, Skolem grouping — uses the binary encoding of
// AppendBinaryKey instead, which renders nothing and tells those two
// apart.
func (n Name) Key() string {
	if n.IsPlain() {
		return n.Functor
	}
	return string(n.AppendKey(make([]byte, 0, 96)))
}

// AppendKey appends the canonical key — the bytes of Key() — to dst.
func (n Name) AppendKey(dst []byte) []byte {
	dst = append(dst, n.Functor...)
	if n.IsPlain() {
		return dst
	}
	dst = append(dst, '(')
	for i, a := range n.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		// Prefix with the kind so that Symbol(x) and String("x")
		// mint distinct identities.
		dst = append(dst, a.Kind().String()...)
		dst = append(dst, ':')
		dst = AppendDisplay(dst, a)
	}
	return append(dst, ')')
}

// Equal reports whether two names identify the same tree, that is the
// same entry of a Store: their binary keys are equal.
func (n Name) Equal(o Name) bool {
	var a, b [keyBufSize]byte
	return string(n.AppendBinaryKey(a[:0])) == string(o.AppendBinaryKey(b[:0]))
}

// Store holds named trees. It preserves insertion order for
// deterministic iteration and output.
type Store struct {
	byKey map[string]int
	items []StoreEntry
}

// StoreEntry is one named tree in a Store.
type StoreEntry struct {
	Name Name
	Tree *Node
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byKey: make(map[string]int)}
}

// Grow makes room for n more trees: the next n inserting Puts do not
// grow the entry list. The index is made anew at its new size when n
// would at least double it, and otherwise grows as Puts fill it.
func (s *Store) Grow(n int) {
	if n <= 0 {
		return
	}
	s.items = slices.Grow(s.items, n)
	if n < len(s.byKey) {
		return
	}
	byKey := make(map[string]int, len(s.byKey)+n)
	for k, i := range s.byKey {
		byKey[k] = i
	}
	s.byKey = byKey
}

// Len reports the number of named trees.
func (s *Store) Len() int { return len(s.items) }

// The index is keyed by AppendBinaryKey. Lookups build the key in a
// stack buffer and index the map with string(key), which the compiler
// does without allocating; only an inserting Put allocates its key.
// A longer key spills to the heap; a 96-byte buffer spilled about 100
// keys per convert_batch conversion (BenchmarkConvertBatch), this one
// none.
const keyBufSize = 128

// Put binds name to t, replacing any previous binding. It reports
// whether the name was already present.
func (s *Store) Put(name Name, t *Node) (replaced bool) {
	var buf [keyBufSize]byte
	key := name.AppendBinaryKey(buf[:0])
	if i, ok := s.byKey[string(key)]; ok {
		s.items[i].Tree = t
		return true
	}
	s.byKey[string(key)] = len(s.items)
	s.items = append(s.items, StoreEntry{Name: name, Tree: t})
	return false
}

// GetOrPut binds name to t unless it is bound already, and returns the
// tree bound to it and whether that was bound before, a tree a Put would
// have replaced. key must be name's AppendBinaryKey: a caller that keyed
// the name already inserts it without a second encoding, where Get then
// Put encode it twice and probe the index three times.
func (s *Store) GetOrPut(key []byte, name Name, t *Node) (bound *Node, found bool) {
	if i, ok := s.byKey[string(key)]; ok {
		return s.items[i].Tree, true
	}
	s.byKey[string(key)] = len(s.items)
	s.items = append(s.items, StoreEntry{Name: name, Tree: t})
	return t, false
}

// Get returns the tree bound to name.
func (s *Store) Get(name Name) (*Node, bool) {
	i, ok := s.Index(name)
	if !ok {
		return nil, false
	}
	return s.items[i].Tree, true
}

// Index returns the position of name's entry in Entries(). A Put that
// replaces the tree keeps the position.
func (s *Store) Index(name Name) (int, bool) {
	var buf [keyBufSize]byte
	return s.IndexKey(name.AppendBinaryKey(buf[:0]))
}

// IndexKey is Index by the name's AppendBinaryKey, for a caller that
// holds the key already.
func (s *Store) IndexKey(key []byte) (int, bool) {
	i, ok := s.byKey[string(key)]
	return i, ok
}

// Has reports whether name is bound.
func (s *Store) Has(name Name) bool {
	_, ok := s.Index(name)
	return ok
}

// Delete removes the binding for name, if present.
func (s *Store) Delete(name Name) {
	var buf [keyBufSize]byte
	key := name.AppendBinaryKey(buf[:0])
	i, ok := s.byKey[string(key)]
	if !ok {
		return
	}
	delete(s.byKey, string(key))
	s.items = append(s.items[:i], s.items[i+1:]...)
	for k, j := range s.byKey {
		if j > i {
			s.byKey[k] = j - 1
		}
	}
}

// Entries returns the entries in insertion order. The returned slice
// must not be modified.
func (s *Store) Entries() []StoreEntry { return s.items }

// Names returns all names in insertion order.
func (s *Store) Names() []Name {
	out := make([]Name, len(s.items))
	for i, e := range s.items {
		out[i] = e.Name
	}
	return out
}

// SortedEntries returns the entries sorted by canonical key, for
// deterministic output independent of rule firing order.
func (s *Store) SortedEntries() []StoreEntry {
	out := make([]StoreEntry, len(s.items))
	copy(out, s.items)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Name.Key() < out[j].Name.Key()
	})
	return out
}

// Clone returns a deep copy of the store (trees included).
func (s *Store) Clone() *Store {
	c := NewStore()
	c.Grow(len(s.items))
	for _, e := range s.items {
		c.Put(e.Name, e.Tree.Clone())
	}
	return c
}
