package wrapper

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/odmg"
	"yat/internal/pattern"
	"yat/internal/relational"
	"yat/internal/sgml"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

const brochureDoc = `<brochure>
  <number>1</number>
  <title>Golf</title>
  <model>1995</model>
  <desc>Nice</desc>
  <spplrs>
    <supplier><name>VW center</name><address>Bd Lenoir, 75005 Paris</address></supplier>
  </spplrs>
</brochure>`

// importDoc imports one document.
func importDoc(t *testing.T, src string, opts *SGMLOptions) *tree.Node {
	t.Helper()
	store, err := ImportSGML(map[string]string{"d": src}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return store.Entries()[0].Tree
}

func TestSGMLTreeTyped(t *testing.T) {
	n := importDoc(t, brochureDoc, nil)
	want := tree.MustParse(`brochure < number < 1 >, title < "Golf" >, model < 1995 >,
		desc < "Nice" >, spplrs < supplier < name < "VW center" >,
		address < "Bd Lenoir, 75005 Paris" > > > >`)
	if !n.Equal(want) {
		t.Errorf("imported tree:\n got: %s\nwant: %s", n, want)
	}
}

func TestSGMLTreeUntyped(t *testing.T) {
	n := importDoc(t, brochureDoc, &SGMLOptions{InferTypes: false})
	num := n.Children[0].Children[0]
	if !num.Label.Equal(tree.String("1")) {
		t.Errorf("untyped number = %v", num.Label)
	}
}

func TestPCDataInference(t *testing.T) {
	cases := []struct {
		in   string
		want tree.Value
	}{
		{"1995", tree.Int(1995)},
		{"-3", tree.Int(-3)},
		{"2.5", tree.Float(2.5)},
		{"1e3", tree.Float(1000)},
		{"true", tree.Bool(true)},
		{"false", tree.Bool(false)},
		{"Golf", tree.String("Golf")},
		{"", tree.String("")},
		{"12a", tree.String("12a")},
	}
	for _, c := range cases {
		if got := pcdataValue(c.in, true); !got.Equal(c.want) {
			t.Errorf("pcdataValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// strconvPCDATA is the inference before the byte pre-filter: strconv on
// every text. pcdataValue must give every input its value.
func strconvPCDATA(text string) tree.Value {
	t := strings.TrimSpace(text)
	if i, err := strconv.ParseInt(t, 10, 64); err == nil && t != "" {
		return tree.Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && strings.ContainsAny(t, ".eE") {
		return tree.Float(f)
	}
	if t == "true" || t == "false" {
		return tree.Bool(t == "true")
	}
	return tree.String(text)
}

func TestPCDataMatchesStrconv(t *testing.T) {
	same := func(in string) {
		t.Helper()
		got, want := pcdataValue(in, true), strconvPCDATA(in)
		if got.Kind() != want.Kind() || got.Display() != want.Display() {
			t.Errorf("pcdataValue(%q) = %s %s, strconv says %s %s", in, got.Kind(), got.Display(), want.Kind(), want.Display())
		}
	}
	for _, in := range []string{
		"", " ", "\t\n", "0", "-0", "+7", "-3", " 42 ", "\t12\n", "007",
		"9223372036854775807", "9223372036854775808", "-9223372036854775809", "99999999999999999999",
		"2.5", "-.5", ".5", "5.", ".", "-", "+", "+-1", "-0.0", "1e3", "1E3", "1e+3", "1e-3", "+1.5e-2",
		"e5", "1e", "1e400", "-1e400", "1e-400",
		"0x1.8p1", "0x1p-2", "0X1P2", "0x1e", "0x1.8", "0x1Ep1", "0xff", "0b101", "0o17",
		"Inf", "+Inf", "-inf", "infinity", "-Infinity", "NaN", "nan", "Inf.", "NaN.0",
		"1_000", "1_000.5", "1__0.5", "_1.5", "1.5_", "1_e5", "0x_1p0",
		"true", "false", "True", "FALSE", " true ", "true1",
		"12a", "1.2.3", "1.5 kg", "Golf", "VW center", "12 rue de Paris", "Supplier 007", "face.bad", "bad.cafe",
	} {
		same(in)
	}
	// And every short string over the bytes that matter.
	const alphabet = "019+-._eEpPxXaAfFinIN t"
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+r.Intn(6))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		same(string(b))
	}
}

// A name costs strconv nothing: typing it allocates no error value.
func TestPCDataNameAllocs(t *testing.T) {
	for _, name := range []string{"Golf", "VW center", "12 rue de Paris", "Supplier 007"} {
		if got := testing.AllocsPerRun(100, func() { inferAtom(name) }); got != 0 {
			t.Errorf("typing %q allocates %.0f times, want 0", name, got)
		}
	}
}

func TestImportSGMLValidates(t *testing.T) {
	good := map[string]string{"b1": brochureDoc}
	store, err := ImportSGML(good, &SGMLOptions{InferTypes: true, DTD: sgml.BrochureDTD()})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 || !store.Has(tree.PlainName("b1")) {
		t.Errorf("store = %v", store.Names())
	}
	bad := map[string]string{"b1": `<brochure><title>t</title></brochure>`}
	if _, err := ImportSGML(bad, &SGMLOptions{DTD: sgml.BrochureDTD()}); err == nil {
		t.Error("invalid document accepted")
	}
	malformed := map[string]string{"b1": `<a><b></a>`}
	if _, err := ImportSGML(malformed, nil); err == nil {
		t.Error("malformed document accepted")
	}
}

func TestImportedSGMLRunsRule1(t *testing.T) {
	// End-to-end SGML import → Rule 1: the wrapper output matches the
	// rule's body pattern.
	store, err := ImportSGML(map[string]string{"b1": brochureDoc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := yatl.MustParse("program p\n" + yatl.Rule1Source)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	oid := tree.SkolemName("Psup", tree.String("VW center"))
	if _, ok := res.Outputs.Get(oid); !ok {
		t.Errorf("Rule 1 did not fire on imported SGML:\n%s", tree.FormatStore(res.Outputs))
	}
}

func TestDTDModel(t *testing.T) {
	m := DTDModel(sgml.BrochureDTD())
	if err := m.Validate(); err != nil {
		t.Fatalf("DTD model invalid: %v", err)
	}
	if !m.Has("Pbrochure") || !m.Has("Psupplier") {
		t.Errorf("model patterns = %v", m.Names())
	}
	// It is a Yat instance and the imported document conforms to it.
	if err := pattern.InstanceOf(m, pattern.YatModel()); err != nil {
		t.Errorf("DTD model not a Yat instance: %v", err)
	}
	n := importDoc(t, brochureDoc, nil)
	if !pattern.Conforms(n, nil, m, "Pbrochure") {
		t.Error("imported document does not conform to its DTD model")
	}
	// And the paper's hand-written Pbr pattern accepts the same data.
	if !pattern.Conforms(n, nil, pattern.BrochureModel(), "Pbr") {
		t.Error("imported document does not conform to Pbr")
	}
}

func TestTableTreeAndImportRelational(t *testing.T) {
	supSchema, _, _ := relational.DealerSchemas()
	db := relational.NewDatabase()
	sup := db.MustCreate(supSchema)
	sup.MustInsert(relational.IntV(1), relational.StrV("VW center"),
		relational.StrV("Paris"), relational.StrV("Bd Lenoir"), relational.StrV("t1"))

	store := ImportRelational(db)
	n, ok := store.Get(tree.PlainName("Rsuppliers"))
	if !ok {
		t.Fatalf("Rsuppliers missing: %v", store.Names())
	}
	want := tree.MustParse(`suppliers < row < sid < 1 >, name < "VW center" >,
		city < "Paris" >, address < "Bd Lenoir" >, tel < "t1" > > >`)
	if !n.Equal(want) {
		t.Errorf("table tree:\n got: %s\nwant: %s", n, want)
	}
	// The tree conforms to the derived schema pattern.
	m := RelationalModel(db)
	if !pattern.Conforms(n, nil, m, "Psuppliers") {
		t.Error("table tree does not conform to its schema pattern")
	}
}

func TestRelationalNulls(t *testing.T) {
	s := relational.MustSchema("t", "v:int")
	tb := relational.NewTable(s)
	tb.MustInsert(relational.NullV())
	n := TableTree(tb)
	if !n.Children[0].Children[0].Children[0].Label.Equal(tree.Symbol("null")) {
		t.Errorf("NULL import = %s", n)
	}
}

func TestODMGExportImportRoundTrip(t *testing.T) {
	schema := odmg.CarDealerSchema()
	db := odmg.NewDatabase(schema)
	s1 := &odmg.Object{OID: "s1", Class: "supplier", Attrs: []odmg.NamedValue{
		{Name: "name", Value: odmg.Str("VW center")},
		{Name: "city", Value: odmg.Str("Paris")},
		{Name: "zip", Value: odmg.Int(75005)},
	}}
	c1 := &odmg.Object{OID: "c1", Class: "car", Attrs: []odmg.NamedValue{
		{Name: "name", Value: odmg.Str("Golf")},
		{Name: "desc", Value: odmg.Str("Compact")},
		{Name: "suppliers", Value: odmg.Set(odmg.Ref("s1"))},
	}}
	db.Put(s1)
	db.Put(c1)
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}

	store := ExportODMG(db)
	carTree, _ := store.Get(tree.PlainName("c1"))
	want := tree.MustParse(`class < car < name < "Golf" >, desc < "Compact" >,
		suppliers < set < &s1 > > > >`)
	if !carTree.Equal(want) {
		t.Errorf("export:\n got: %s\nwant: %s", carTree, want)
	}

	back, err := ImportODMG(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("reimported %d objects", back.Len())
	}
	car, ok := back.Get(tree.PlainName("c1").Key())
	if !ok {
		t.Fatal("car lost in round trip")
	}
	sups, _ := car.Attr("suppliers")
	if len(sups.Elems) != 1 || sups.Elems[0].Ref != tree.PlainName("s1").Key() {
		t.Errorf("suppliers after round trip = %s", sups)
	}
}

func TestImportODMGFromEngineOutput(t *testing.T) {
	// The full §3.1 flow: brochures → Rules 1+2 → materialize into
	// the ODMG database.
	store := workload.BrochureStore(4, 2, 6, 42)
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ImportODMG(res.Outputs, odmg.CarDealerSchema())
	if err != nil {
		t.Fatalf("materialization failed: %v\noutputs:\n%s", err, tree.FormatStore(res.Outputs))
	}
	if len(db.OfClass("car")) == 0 || len(db.OfClass("supplier")) == 0 {
		t.Errorf("materialized db: %d cars, %d suppliers",
			len(db.OfClass("car")), len(db.OfClass("supplier")))
	}
	if err := db.Check(); err != nil {
		t.Errorf("materialized db invalid: %v", err)
	}
}

func TestODMGSchemaModelMatchesFig2(t *testing.T) {
	m := ODMGSchemaModel(odmg.CarDealerSchema())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The derived model plays the Car Schema's role in Figure 2: an
	// instance of the ODMG model.
	if err := pattern.InstanceOf(m, pattern.ODMGModel()); err != nil {
		t.Errorf("derived schema model not an ODMG instance: %v", err)
	}
}

func TestExportHTML(t *testing.T) {
	store := workload.ODMGStore(1, 2, 2, 7)
	prog := yatl.MustParse(yatl.WebProgramSource)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := ExportHTML(res.Outputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 { // 1 car + 2 suppliers
		t.Fatalf("pages = %v", PageURLs(pages))
	}
	carURL := SanitizeURL(tree.SkolemName("HtmlPage", tree.Ref{Name: tree.PlainName("c1")}))
	page, ok := pages[carURL]
	if !ok {
		t.Fatalf("car page missing; have %v", PageURLs(pages))
	}
	for _, frag := range []string{"<!DOCTYPE html>", "<html>", "<h1>car</h1>", "<ul>", "<li>name: ", `<a href="`} {
		if !strings.Contains(page, frag) {
			t.Errorf("car page missing %q:\n%s", frag, page)
		}
	}
	// Anchors point at existing pages.
	for _, u := range PageURLs(pages) {
		_ = u
	}
	for target := range pages {
		_ = target
	}
	for _, frag := range extractHrefs(page) {
		if _, ok := pages[frag]; !ok {
			t.Errorf("anchor target %q is not an exported page", frag)
		}
	}
}

func extractHrefs(page string) []string {
	var out []string
	rest := page
	for {
		i := strings.Index(rest, `href="`)
		if i < 0 {
			return out
		}
		rest = rest[i+len(`href="`):]
		j := strings.Index(rest, `"`)
		if j < 0 {
			return out
		}
		out = append(out, rest[:j])
		rest = rest[j:]
	}
}

func TestHTMLEscaping(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.SkolemName("HtmlPage", tree.String("x")), tree.MustParse(
		`html < head -> title -> "a < b & c" , body -> "text" >`))
	pages, err := ExportHTML(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if !strings.Contains(p, "a &lt; b &amp; c") {
			t.Errorf("escaping wrong:\n%s", p)
		}
	}
}

// TestHTMLEscapeAllocs pins the escaping writer: text is appended in
// place, without an allocation while the buffer has room.
func TestHTMLEscapeAllocs(t *testing.T) {
	plain := "Supplier 007, 12 Bd Lenoir 75011 Paris"
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		if string(appendEscaped(buf[:0], plain)) != plain {
			t.Fatal("plain text changed")
		}
		if string(appendEscaped(buf[:0], `a<b & "c">`)) != "a&lt;b &amp; &quot;c&quot;&gt;" {
			t.Fatal("specials not escaped")
		}
	}); n != 0 {
		t.Errorf("escaping: %v allocations, want 0", n)
	}
}

func TestCustomURLMapping(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.SkolemName("HtmlPage", tree.String("x")), tree.Sym("html", tree.Str("hi")))
	pages, err := ExportHTML(store, &HTMLOptions{URL: func(n tree.Name) string { return "custom.html" }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pages["custom.html"]; !ok {
		t.Errorf("custom URL not used: %v", PageURLs(pages))
	}
}

// SanitizeURL is lossy: distinct identities can map to one URL. That
// must be a detected error naming both pages, never a silent overwrite
// of whichever page exported first.
func TestExportHTMLURLCollision(t *testing.T) {
	store := tree.NewStore()
	a := tree.SkolemName("HtmlPage", tree.String("x.y"))
	b := tree.SkolemName("HtmlPage", tree.String("x;y"))
	if SanitizeURL(a) != SanitizeURL(b) {
		t.Fatalf("test setup: %q and %q should collide", SanitizeURL(a), SanitizeURL(b))
	}
	store.Put(a, tree.Sym("html", tree.Str("first")))
	store.Put(b, tree.Sym("html", tree.Str("second")))
	pages, err := ExportHTML(store, nil)
	if err == nil {
		t.Fatalf("collision not detected; exported %v", PageURLs(pages))
	}
	msg := err.Error()
	for _, want := range []string{"collision", a.String(), b.String(), SanitizeURL(a)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	// Distinct URLs stay fine.
	ok := tree.NewStore()
	ok.Put(tree.SkolemName("HtmlPage", tree.String("one")), tree.Sym("html", tree.Str("1")))
	ok.Put(tree.SkolemName("HtmlPage", tree.String("two")), tree.Sym("html", tree.Str("2")))
	if _, err := ExportHTML(ok, nil); err != nil {
		t.Fatalf("no collision, but: %v", err)
	}
}
