package wrapper

import (
	"strings"
	"testing"

	"yat/internal/odmg"
	"yat/internal/pattern"
	"yat/internal/sgml"
	"yat/internal/tree"
)

func TestDTDModelChoiceAndAny(t *testing.T) {
	d := sgml.MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (head?, (para | list)+)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (para)+>
<!ELEMENT free ANY>
]>`)
	m := DTDModel(d)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Pdoc", "Phead", "Ppara", "Plist", "Pfree"} {
		if !m.Has(name) {
			t.Errorf("model missing %s", name)
		}
	}
	// A valid document conforms to the derived model.
	n := importDoc(t, `<doc><head>h</head><para>a</para><list><para>b</para></list></doc>`, nil)
	if !pattern.Conforms(n, nil, m, "Pdoc") {
		t.Errorf("document does not conform to choice/optional model: %s", n)
	}
}

func TestDTDModelEmptyElement(t *testing.T) {
	d := sgml.MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (leaf)>
<!ELEMENT leaf EMPTY>
]>`)
	m := DTDModel(d)
	leaf, ok := m.Get("Pleaf")
	if !ok || len(leaf.Union[0].Edges) != 0 {
		t.Errorf("EMPTY element should derive a leaf pattern: %v", leaf)
	}
}

func TestODMGSchemaModelRichTypes(t *testing.T) {
	schema := odmg.NewSchema(
		&odmg.Class{Name: "thing", Attrs: []odmg.Field{
			{Name: "tags", Type: odmg.ListOf(odmg.StringT)},
			{Name: "pos", Type: odmg.TupleOf(
				odmg.Field{Name: "x", Type: odmg.IntT},
				odmg.Field{Name: "y", Type: odmg.FloatT})},
			{Name: "flag", Type: odmg.BoolT},
		}},
	)
	m := ODMGSchemaModel(schema)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Get("Pthing")
	s := p.String()
	for _, frag := range []string{"list -*>", "tuple", "x ->", ": float", ": bool"} {
		if !strings.Contains(s, frag) {
			t.Errorf("derived pattern missing %q: %s", frag, s)
		}
	}
	if err := pattern.InstanceOf(m, pattern.ODMGModel()); err != nil {
		t.Errorf("rich schema model not an ODMG instance: %v", err)
	}
}

func TestODMGRoundTripTuplesAndLists(t *testing.T) {
	schema := odmg.NewSchema(
		&odmg.Class{Name: "thing", Attrs: []odmg.Field{
			{Name: "tags", Type: odmg.ListOf(odmg.StringT)},
			{Name: "pos", Type: odmg.TupleOf(
				odmg.Field{Name: "x", Type: odmg.IntT},
				odmg.Field{Name: "y", Type: odmg.FloatT})},
			{Name: "flag", Type: odmg.BoolT},
		}},
	)
	db := odmg.NewDatabase(schema)
	db.Put(&odmg.Object{OID: "t1", Class: "thing", Attrs: []odmg.NamedValue{
		{Name: "tags", Value: odmg.List(odmg.Str("a"), odmg.Str("b"))},
		{Name: "pos", Value: odmg.Tuple(
			odmg.NamedValue{Name: "x", Value: odmg.Int(3)},
			odmg.NamedValue{Name: "y", Value: odmg.Float(2.5)})},
		{Name: "flag", Value: odmg.Bool(true)},
	}})
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	store := ExportODMG(db)
	n, _ := store.Get(tree.PlainName("t1"))
	want := tree.MustParse(`class < thing < tags < list < "a", "b" > >,
		pos < tuple < x < 3 >, y < 2.5 > > >, flag < true > > >`)
	if !n.Equal(want) {
		t.Errorf("export:\n got: %s\nwant: %s", n, want)
	}
	back, err := ImportODMG(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := back.Get(tree.PlainName("t1").Key())
	pos, _ := obj.Attr("pos")
	if len(pos.Named) != 2 || pos.Named[1].Value.Float != 2.5 {
		t.Errorf("tuple after round trip: %s", pos)
	}
}

func TestImportODMGErrors(t *testing.T) {
	schema := odmg.CarDealerSchema()
	mk := func(src string) error {
		store, err := tree.ParseStore(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ImportODMG(store, schema)
		return err
	}
	// Wrong attribute count.
	if err := mk(`s1: class < supplier < name < "n" > > >`); err == nil {
		t.Error("missing attributes accepted")
	}
	// Wrong attribute kind.
	if err := mk(`s1: class < supplier < name < "n" >, city < "c" >, zip < true > > >`); err == nil {
		t.Error("bool zip accepted")
	}
	// Dangling reference (fails db.Check).
	if err := mk(`c1: class < car < name < "n" >, desc < "d" >,
		suppliers < set < &ghost > > > >`); err == nil {
		t.Error("dangling reference accepted")
	}
	// Non-class entries are skipped silently.
	store, _ := tree.ParseStore(`x: whatever < 1 >`)
	db, err := ImportODMG(store, schema)
	if err != nil || db.Len() != 0 {
		t.Errorf("non-class entry handling: %v, %d", err, db.Len())
	}
	// String-to-int coercion works for digit strings.
	db2, err := ImportODMG(mustStore(t, `s1: class < supplier < name < "n" >, city < "c" >, zip < "75005" > > >`), schema)
	if err != nil {
		t.Fatalf("digit-string zip should coerce: %v", err)
	}
	obj, _ := db2.Get(tree.PlainName("s1").Key())
	z, _ := obj.Attr("zip")
	if z.Int != 75005 {
		t.Errorf("coerced zip = %d", z.Int)
	}
}

func mustStore(t *testing.T, src string) *tree.Store {
	t.Helper()
	s, err := tree.ParseStore(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRenderBareRefAndAtoms(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.SkolemName("HtmlPage", tree.String("p")), tree.MustParse(
		`html < body < 42, 2.5, true, &other > >`))
	pages, err := ExportHTML(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	var page string
	for _, p := range pages {
		page = p
	}
	for _, frag := range []string{"42", "2.5", "true", `<a href="other.html">other</a>`} {
		if !strings.Contains(page, frag) {
			t.Errorf("page missing %q:\n%s", frag, page)
		}
	}
}

func TestExportHTMLCustomFunctor(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.SkolemName("Page", tree.String("p")), tree.Sym("html", tree.Str("x")))
	store.Put(tree.SkolemName("HtmlPage", tree.String("q")), tree.Sym("html", tree.Str("y")))
	pages, err := ExportHTML(store, &HTMLOptions{PageFunctor: "Page"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 {
		t.Errorf("functor filter wrong: %v", PageURLs(pages))
	}
}

func TestSanitizeURLDeterministic(t *testing.T) {
	n := tree.SkolemName("HtmlPage", tree.String("Golf GTI / 1995"))
	u1 := SanitizeURL(n)
	u2 := SanitizeURL(n)
	if u1 != u2 || !strings.HasSuffix(u1, ".html") {
		t.Errorf("url = %q / %q", u1, u2)
	}
	if strings.ContainsAny(u1[:len(u1)-5], "/ \"") {
		t.Errorf("unsafe characters in %q", u1)
	}
}
