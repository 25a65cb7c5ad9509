package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// keyGen generates seeded names and values for the binary-key ≡
// Name.Key() test; made counts what it generated, by trap.
type keyGen struct {
	*rand.Rand
	made map[string]int
}

// Symbols are identifiers the parser reads as symbols. Symbols that
// display like the atoms of another kind (1, true, "x") come from
// kindTwin.
var keySymbols = []string{"a", "b", "item", "Psup"}

// Strings with quotes, escapes, low control bytes (the bytes of a kind
// tag), invalid UTF-8, and one whose length takes two bytes.
var keyStrings = []string{"", "x", "a b", `q"`, `\`, "\x02", "a\x02", "\x02b", "\xff", "é", "x\x00",
	strings.Repeat("long ", 40)}

// Floats with the zeros of both signs, NaNs of different payloads and
// the infinities.
var keyFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000bad),
	1.5, 2, 1e21, math.Inf(1), math.Inf(-1)}

func (g *keyGen) value(depth int) Value {
	n := 6
	if depth > 0 {
		n = 8
	}
	switch g.Intn(n) {
	case 0:
		return Symbol(keySymbols[g.Intn(len(keySymbols))])
	case 1:
		s := keyStrings[g.Intn(len(keyStrings))]
		g.made["string"]++
		return String(s)
	case 2:
		return Int(int64(g.Intn(4) - 1))
	case 3:
		g.made["float"]++
		return Float(keyFloats[g.Intn(len(keyFloats))])
	case 4:
		return Bool(g.Intn(2) == 0)
	case 5, 6:
		g.made["ref"]++
		if depth > 0 {
			g.made["nested ref"]++
		}
		return Ref{Name: g.name(depth - 1)}
	}
	g.made["tree"]++
	return TreeVal{Root: g.tree(depth)}
}

// tree is never a bare leaf: a leaf-valued variable binds its label.
// kindTwin makes the bare leaf that displays as its label does.
func (g *keyGen) tree(depth int) *Node {
	n := New(Symbol(keySymbols[g.Intn(len(keySymbols))]))
	for i, k := 0, 1+g.Intn(2); i < k; i++ {
		if depth > 0 && g.Intn(3) == 0 {
			n.Add(g.tree(depth - 1))
			continue
		}
		n.Add(New(g.value(0)))
	}
	return n
}

func (g *keyGen) name(depth int) Name {
	functor := []string{"P", "Psup", "b1"}[g.Intn(3)]
	if depth < 0 || g.Intn(4) == 0 {
		return PlainName(functor)
	}
	args := make([]Value, 1+g.Intn(3))
	strs := g.Intn(4) == 0 // string arguments only, as Psup("VW center", "Paris")
	for i := range args {
		if strs {
			args[i] = String(keyStrings[g.Intn(len(keyStrings))])
			continue
		}
		args[i] = g.value(depth)
	}
	return SkolemName(functor, args...)
}

// kindTwin returns a value of another kind that displays as v does: an
// atom's display form as a symbol, a symbol as a bare leaf.
func kindTwin(v Value) (Value, bool) {
	switch x := v.(type) {
	case String, Int, Float, Bool:
		return Symbol(v.Display()), true
	case Symbol:
		return TreeVal{Root: New(x)}, true
	}
	return nil, false
}

// variants are names that differ from n in one way a key could get
// wrong: a float zero of the other sign (told apart) or a NaN of
// another payload (not told apart), an argument's kind twin, at the top
// level or inside a reference (told apart, though Name.Key() tells only
// the top-level one apart), and what looks alike to a key without its
// lengths — two adjacent string arguments joined by a kind tag, or the
// argument after a reference moved into the reference's own arguments.
func (g *keyGen) variants(n Name) []Name {
	var out []Name
	with := func(i int, v Value) Name {
		args := append([]Value(nil), n.Args...)
		args[i] = v
		return SkolemName(n.Functor, args...)
	}
	for i, v := range n.Args {
		if t, ok := kindTwin(v); ok {
			out = append(out, with(i, t))
		}
		if r, ok := v.(Ref); ok {
			for j, a := range r.Name.Args {
				if t, ok := kindTwin(a); ok {
					g.made["nested kind twin"]++
					args := append([]Value(nil), r.Name.Args...)
					args[j] = t
					out = append(out, with(i, Ref{Name: SkolemName(r.Name.Functor, args...)}))
				}
			}
		}
		f, ok := v.(Float)
		switch {
		case !ok:
		case f == 0:
			g.made["0.0 beside -0.0"]++
			out = append(out, with(i, Float(math.Copysign(0, -1)*math.Copysign(1, float64(f)))))
		case math.IsNaN(float64(f)):
			g.made["NaN payloads"]++
			out = append(out, with(i, Float(math.Float64frombits(math.Float64bits(float64(f))^1))))
		}
	}
	for i := 0; i+1 < len(n.Args); i++ {
		a, aok := n.Args[i].(String)
		b, bok := n.Args[i+1].(String)
		if aok && bok {
			g.made["joined strings"]++
			args := append(append(append([]Value(nil), n.Args[:i]...), a+"\x02"+b), n.Args[i+2:]...)
			out = append(out, SkolemName(n.Functor, args...))
		}
		if r, ok := n.Args[i].(Ref); ok {
			g.made["shifted ref argument"]++
			moved := Ref{Name: SkolemName(r.Name.Functor, append(append([]Value(nil), r.Name.Args...), n.Args[i+1])...)}
			args := append(append(append([]Value(nil), n.Args[:i]...), moved), n.Args[i+2:]...)
			out = append(out, SkolemName(n.Functor, args...))
		}
	}
	return out
}

// sameKinds reports whether a and b have one kind wherever both have a
// value, at every depth: what the binary key sees beyond Name.Key().
func sameKinds(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case Ref:
		return sameArgKinds(x.Name, b.(Ref).Name)
	case TreeVal:
		y := b.(TreeVal)
		if x.Root == nil || y.Root == nil {
			return x.Root == y.Root
		}
		if !sameKinds(x.Root.Label, y.Root.Label) || len(x.Root.Children) != len(y.Root.Children) {
			return false
		}
		for i, c := range x.Root.Children {
			if !sameKinds(TreeVal{Root: c}, TreeVal{Root: y.Root.Children[i]}) {
				return false
			}
		}
	}
	return true
}

func sameArgKinds(a, b Name) bool {
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !sameKinds(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// keySeedNames generates one seed's names: at least 40, each followed
// by its variants, some names wrapping a value as their one argument.
func keySeedNames(seed int64, made map[string]int) []Name {
	g := &keyGen{Rand: rand.New(rand.NewSource(seed)), made: made}
	var names []Name
	for len(names) < 40 {
		var n Name
		if g.Intn(2) == 0 {
			n = g.name(2)
		} else {
			// A value, as the one argument of a Skolem name.
			n = SkolemName("F", g.value(2))
		}
		names = append(names, n)
		names = append(names, g.variants(n)...)
	}
	return names
}

// keySeeds returns the seeds a generated key test runs: 300 from 1,
// 3 000 under YAT_SOAK=1, or the one seed YAT_KEY_SEED names.
func keySeeds(t *testing.T) (first, n int64) {
	first, n = 1, 300
	if os.Getenv("YAT_SOAK") == "1" {
		n = 3000
	}
	if s := os.Getenv("YAT_KEY_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, n = seed, 1
	}
	return first, n
}

// checkKeySeed generates one seed's names and values and checks every
// pair: their keys under nameKey are equal, and Name.Equal holds,
// exactly when their Name.Key()s are equal and their arguments have the
// same kinds at every depth. It returns the first pair that breaks
// this.
func checkKeySeed(seed int64, made map[string]int, nameKey func(Name, []byte) []byte) string {
	names := keySeedNames(seed, made)
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = string(nameKey(n, nil))
	}
	for i, a := range names {
		for j := i + 1; j < len(names); j++ {
			b := names[j]
			textEq := a.Key() == b.Key()
			want := textEq && sameArgKinds(a, b)
			if want {
				made["equal pair"]++
			} else if textEq {
				made["text-equal pair of other kinds"]++
			}
			if (keys[i] == keys[j]) != want {
				return fmt.Sprintf("%s and %s: Name.Key() equal %v, same kinds %v, binary keys equal %v\n %q\n %q",
					a, b, textEq, sameArgKinds(a, b), !want, keys[i], keys[j])
			}
			if a.Equal(b) != want {
				return fmt.Sprintf("%s and %s: Name.Equal %v, want %v", a, b, !want, want)
			}
		}
	}
	return ""
}

// TestBinaryKeyMatchesNameKey checks AppendBinaryKey against the text
// form over generated names and values: two keys are equal exactly when
// the Name.Key()s are and the arguments' kinds agree at every depth. A
// failure prints the seed to rerun alone.
func TestBinaryKeyMatchesNameKey(t *testing.T) {
	first, seeds := keySeeds(t)
	made := map[string]int{}
	for seed := first; seed < first+seeds; seed++ {
		if diff := checkKeySeed(seed, made, Name.AppendBinaryKey); diff != "" {
			t.Fatalf("seed %d: %s\nrerun with YAT_KEY_SEED=%d go test ./internal/tree -run TestBinaryKeyMatchesNameKey",
				seed, diff, seed)
		}
	}
	if seeds == 1 {
		return
	}
	for _, trap := range []string{"string", "float", "ref", "nested ref", "tree", "0.0 beside -0.0",
		"NaN payloads", "joined strings", "shifted ref argument", "nested kind twin", "equal pair",
		"text-equal pair of other kinds"} {
		if int64(made[trap]) < seeds/10 {
			t.Errorf("trap %q generated %d times in %d seeds, want ≥ %d", trap, made[trap], seeds, seeds/10)
		}
	}
	t.Logf("%d seeds; traps %v", seeds, made)
}

// checkKeyedSeed puts one seed's names in two stores, one through the
// keyed paths (GetOrPut, IndexKey) with each name's AppendBinaryKey, one
// through the named ones (Put, Get, Index), and returns the first
// answer on which they differ: found versus replaced, the tree kept,
// a position, a hit or a miss (every third name goes in neither store).
// made counts the trees kept and the misses.
func checkKeyedSeed(seed int64, made map[string]int) string {
	names := keySeedNames(seed, map[string]int{})
	named, keyed := NewStore(), NewStore()
	for i, n := range names {
		if i%3 == 2 {
			continue
		}
		key := n.AppendBinaryKey(nil)
		t := New(Int(int64(i)))
		before, _ := named.Get(n)
		replaced := named.Put(n, t)
		bound, found := keyed.GetOrPut(key, n, t)
		want := t
		if replaced {
			made["tree kept"]++
			want = before
			named.Put(n, before) // GetOrPut keeps the tree bound first
		}
		if found != replaced || bound != want {
			return fmt.Sprintf("%s: GetOrPut found %v, the tree of name %d; Put replaced %v, want that of %d",
				n, found, bound.Label, replaced, want.Label)
		}
	}
	if named.Len() != keyed.Len() {
		return fmt.Sprintf("%d named entries, %d keyed", named.Len(), keyed.Len())
	}
	for _, n := range names {
		i, ok := named.Index(n)
		j, kok := keyed.IndexKey(n.AppendBinaryKey(nil))
		if i != j || ok != kok {
			return fmt.Sprintf("%s: Index = %d, %v; IndexKey = %d, %v", n, i, ok, j, kok)
		}
		if !ok {
			made["miss"]++
		}
		if t, _ := named.Get(n); ok && keyed.Entries()[j].Tree != t {
			return fmt.Sprintf("%s: the keyed store holds the tree of name %v, the named one of %v",
				n, keyed.Entries()[j].Tree.Label, t.Label)
		}
	}
	return ""
}

// TestKeyedStoreMatchesNamed checks the keyed paths of a Store, which
// the engine takes with a key it already holds, against the named ones
// over generated names (checkKeyedSeed). A failure prints the seed to
// rerun alone.
func TestKeyedStoreMatchesNamed(t *testing.T) {
	first, seeds := keySeeds(t)
	made := map[string]int{}
	for seed := first; seed < first+seeds; seed++ {
		if diff := checkKeyedSeed(seed, made); diff != "" {
			t.Fatalf("seed %d: %s\nrerun with YAT_KEY_SEED=%d go test ./internal/tree -run TestKeyedStoreMatchesNamed",
				seed, diff, seed)
		}
	}
	if seeds > 1 {
		for _, answer := range []string{"tree kept", "miss"} {
			if int64(made[answer]) < seeds/10 {
				t.Errorf("%q answered %d times in %d seeds, want ≥ %d", answer, made[answer], seeds, seeds/10)
			}
		}
		t.Logf("%d seeds; answers %v", seeds, made)
	}
}

// TestBinaryKeyLayout pins the encoding: the kind tag, the payload's
// length in 4 little-endian bytes, the payload.
func TestBinaryKeyLayout(t *testing.T) {
	long := strings.Repeat("x", 200)
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{nil, "\x00"},
		{Symbol("a"), "\x01\x01\x00\x00\x00a"},
		{String(long), "\x02\xc8\x00\x00\x00" + long},
		{Int(-7), "\x03\x02\x00\x00\x00-7"},
		{Ref{Name: SkolemName("P", String(long))}, "\x06\xcf\x00\x00\x00\x01P\x02\xc8\x00\x00\x00" + long},
	} {
		if got := string(AppendBinaryKey([]byte("k"), tc.v)); got != "k"+tc.want {
			t.Errorf("AppendBinaryKey(%v) = %q, want %q", tc.v, got, "k"+tc.want)
		}
	}
}

// TestNestedKindTwins pins which side wins where Name.Key() and the
// binary key disagree: names whose nested arguments differ only in kind
// share their text key, but they are two identities — not Equal, and
// two entries of a Store.
func TestNestedKindTwins(t *testing.T) {
	for _, tc := range [][2]Value{
		{Symbol("1"), Int(1)},
		{Symbol("true"), Bool(true)},
		{Symbol(`"x"`), String("x")},
		{Symbol("a"), TreeVal{Root: New(Symbol("a"))}},
	} {
		a := SkolemName("P", Ref{Name: SkolemName("Q", tc[0])})
		b := SkolemName("P", Ref{Name: SkolemName("Q", tc[1])})
		if a.Key() != b.Key() {
			t.Fatalf("%s and %s: text keys %q and %q differ", a, b, a.Key(), b.Key())
		}
		if a.Equal(b) || (Ref{Name: a}).Equal(Ref{Name: b}) {
			t.Errorf("%v and %v inside &Q: names Equal", tc[0], tc[1])
		}
		s := NewStore()
		ta, tb := New(Symbol("ta")), New(Symbol("tb"))
		s.Put(a, ta)
		if s.Put(b, tb) || s.Len() != 2 {
			t.Errorf("%v and %v inside &Q: one Store entry", tc[0], tc[1])
		}
		if got, _ := s.Get(a); got != ta {
			t.Errorf("%v inside &Q: Get returned the other entry", tc[0])
		}
		if got, _ := s.Get(b); got != tb {
			t.Errorf("%v inside &Q: Get returned the other entry", tc[1])
		}
	}
}

// TestBinaryKeyMutationDetected proves the oracle can fail: a key
// without the length prefix lets joined strings and shifted reference
// arguments collide, and the comparison catches it.
func TestBinaryKeyMutationDetected(t *testing.T) {
	noLength := func(n Name, dst []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(n.Functor)))
		dst = append(dst, n.Functor...)
		for _, a := range n.Args {
			dst = appendKeyNoLength(dst, a)
		}
		return dst
	}
	caught := 0
	for seed := int64(1); seed <= 100; seed++ {
		if checkKeySeed(seed, map[string]int{}, noLength) != "" {
			caught++
		}
	}
	if caught < 50 {
		t.Errorf("a key without its length was caught on %d of 100 seeds, want ≥ 50", caught)
	}
	t.Logf("a key without its length was caught on %d of 100 seeds", caught)
}

// appendKeyNoLength is the mutant: AppendBinaryKey without the length
// behind the kind tag.
func appendKeyNoLength(dst []byte, v Value) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = append(dst, byte(v.Kind())+1)
	switch x := v.(type) {
	case Ref:
		dst = binary.AppendUvarint(dst, uint64(len(x.Name.Functor)))
		dst = append(dst, x.Name.Functor...)
		for _, a := range x.Name.Args {
			dst = appendKeyNoLength(dst, a)
		}
	case TreeVal:
		dst = appendKeyNoLength(dst, x.Root.Label)
		dst = binary.AppendUvarint(dst, uint64(len(x.Root.Children)))
		for _, c := range x.Root.Children {
			dst = appendKeyNoLength(dst, TreeVal{Root: c})
		}
	case String:
		dst = append(dst, x...)
	case Symbol:
		dst = append(dst, x...)
	default:
		dst = AppendDisplay(dst, v)
	}
	return dst
}
