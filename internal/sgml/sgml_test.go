package sgml

import (
	"strings"
	"testing"
)

func TestParseBrochureDTD(t *testing.T) {
	d := BrochureDTD()
	if d.Root != "brochure" {
		t.Errorf("root = %q", d.Root)
	}
	if len(d.Elements()) != 9 {
		t.Errorf("elements = %v", d.Elements())
	}
	br, _ := d.Element("brochure")
	if br.Kind != MSeq || len(br.Items) != 5 {
		t.Errorf("brochure model = %s", br)
	}
	sp, _ := d.Element("spplrs")
	if sp.Kind != MName || sp.Name != "supplier" || sp.Occ != ZeroOrMore {
		t.Errorf("spplrs model = %s (kind %d)", sp, sp.Kind)
	}
	num, _ := d.Element("number")
	if num.Kind != MPCData {
		t.Errorf("number model = %s", num)
	}
}

func TestDTDStringRoundTrip(t *testing.T) {
	d := BrochureDTD()
	d2, err := ParseDTD(d.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, d.String())
	}
	if d2.String() != d.String() {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

func TestParseDTDConstructs(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (head?, (para | list)+, tail)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (para)+>
<!ELEMENT tail EMPTY>
]>`)
	doc, _ := d.Element("doc")
	if doc.Kind != MSeq || len(doc.Items) != 3 {
		t.Fatalf("doc model = %s", doc)
	}
	if doc.Items[0].Occ != Optional {
		t.Errorf("head should be optional: %s", doc)
	}
	if doc.Items[1].Kind != MChoice || doc.Items[1].Occ != OneOrMore {
		t.Errorf("choice group wrong: %s", doc.Items[1])
	}
	tail, _ := d.Element("tail")
	if tail.Kind != MEmpty {
		t.Errorf("tail should be EMPTY")
	}
}

func TestParseDTDErrors(t *testing.T) {
	cases := []string{
		``,
		`<!DOCTYPE x`,
		`<!DOCTYPE x [ <!ELEMENT x (y)> ]>`, // y undeclared
		`<!DOCTYPE x [ <!ELEMENT y (#PCDATA)> ]>`, // root undeclared
		`<!DOCTYPE x [ <!ELEMENT x (a, b | c)> <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>`, // mixed separators
		`<!DOCTYPE x [ <!ELEMENT x (#PCDATA)> <!ELEMENT x (#PCDATA)> ]>`,                                                // duplicate
	}
	for _, src := range cases {
		if _, err := ParseDTD(src); err == nil {
			t.Errorf("ParseDTD(%q) should fail", src)
		}
	}
}

const sampleDoc = `<!-- a comment -->
<brochure>
  <number>1</number>
  <title>Golf</title>
  <model>1995</model>
  <desc>Nice &amp; compact</desc>
  <spplrs>
    <supplier><name>VW center</name><address>Bd Lenoir, 75005 Paris</address></supplier>
    <supplier><name>VW2</name><address>Bd Leblanc, 75015 Paris</address></supplier>
  </spplrs>
</brochure>`

func TestParseDocument(t *testing.T) {
	doc := MustParseDocument(sampleDoc)
	if doc.Name != "brochure" || len(doc.Children) != 5 {
		t.Fatalf("doc = %s", doc)
	}
	title, ok := doc.Find("title")
	if !ok || title.Text != "Golf" {
		t.Errorf("title = %v", title)
	}
	desc, _ := doc.Find("desc")
	if desc.Text != "Nice & compact" {
		t.Errorf("entity decoding wrong: %q", desc.Text)
	}
	spplrs, _ := doc.Find("spplrs")
	sups := spplrs.FindAll("supplier")
	if len(sups) != 2 {
		t.Fatalf("suppliers = %d", len(sups))
	}
	name, _ := sups[1].Find("name")
	if name.Text != "VW2" {
		t.Errorf("supplier 2 name = %q", name.Text)
	}
}

func TestDocumentStringRoundTrip(t *testing.T) {
	doc := MustParseDocument(sampleDoc)
	again, err := ParseDocument(doc.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, doc.String())
	}
	if again.String() != doc.String() {
		t.Errorf("round trip unstable")
	}
	// Pretty output parses too.
	pretty, err := ParseDocument(doc.Pretty())
	if err != nil {
		t.Fatalf("pretty reparse: %v", err)
	}
	if pretty.String() != doc.String() {
		t.Errorf("pretty round trip changed content")
	}
}

func TestParseDocumentWithInlineDoctype(t *testing.T) {
	src := BrochureDTDSource + "\n" + sampleDoc
	doc, err := ParseDocument(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "brochure" {
		t.Errorf("root = %q", doc.Name)
	}
}

func TestParseDocumentErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a><b></b>text</a>`, // mixed content
		`<a>text<b></b></a>`, // mixed content
		`<a></a><b></b>`,     // two roots
		`text only`,
	}
	for _, src := range cases {
		if _, err := ParseDocument(src); err == nil {
			t.Errorf("ParseDocument(%q) should fail", src)
		}
	}
}

func TestValidate(t *testing.T) {
	d := BrochureDTD()
	doc := MustParseDocument(sampleDoc)
	if err := Validate(doc, d); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
	// Zero suppliers is fine: (supplier)*.
	noSups := MustParseDocument(`<brochure><number>1</number><title>t</title>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`)
	if err := Validate(noSups, d); err != nil {
		t.Errorf("empty spplrs rejected: %v", err)
	}
	// Missing mandatory element.
	missing := MustParseDocument(`<brochure><number>1</number><title>t</title></brochure>`)
	if err := Validate(missing, d); err == nil {
		t.Error("missing elements accepted")
	}
	// Wrong order.
	swapped := MustParseDocument(`<brochure><title>t</title><number>1</number>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`)
	if err := Validate(swapped, d); err == nil {
		t.Error("wrong element order accepted")
	}
	// Wrong root.
	if err := Validate(MustParseDocument(`<other></other>`), d); err == nil {
		t.Error("wrong root accepted")
	}
	// Supplier missing address.
	badSup := MustParseDocument(`<brochure><number>1</number><title>t</title>
		<model>1990</model><desc>d</desc>
		<spplrs><supplier><name>n</name></supplier></spplrs></brochure>`)
	if err := Validate(badSup, d); err == nil {
		t.Error("incomplete supplier accepted")
	}
	// PCDATA element with children.
	badText := &Element{Name: "number", Children: []*Element{TextElement("x", "y")}}
	bad := MustParseDocument(sampleDoc)
	bad.Children[0] = badText
	if err := Validate(bad, d); err == nil {
		t.Error("children under #PCDATA accepted")
	}
}

func TestValidateChoiceAndPlus(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (head?, (para | list)+)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (para)+>
]>`)
	good := MustParseDocument(`<doc><para>a</para><list><para>b</para></list></doc>`)
	if err := Validate(good, d); err != nil {
		t.Errorf("valid choice document rejected: %v", err)
	}
	empty := MustParseDocument(`<doc></doc>`)
	if err := Validate(empty, d); err == nil {
		t.Error("(x)+ with zero occurrences accepted")
	}
	emptyList := MustParseDocument(`<doc><list></list></doc>`)
	if err := Validate(emptyList, d); err == nil {
		t.Error("empty (para)+ list accepted")
	}
}

func TestEscapeUnescape(t *testing.T) {
	raw := `a < b & c > "d" 'e'`
	if got := Unescape(Escape(raw)); got != raw {
		t.Errorf("escape round trip: %q", got)
	}
}

// TestEscapeAllocs pins the shared replacers: text with no entity to
// encode or decode comes back as is, without an allocation.
func TestEscapeAllocs(t *testing.T) {
	plain := "Supplier 007, 12 Bd Lenoir 75011 Paris"
	for name, fn := range map[string]func(string) string{"Escape": Escape, "Unescape": Unescape} {
		if n := testing.AllocsPerRun(200, func() {
			if fn(plain) != plain {
				t.Fatal("plain text changed")
			}
		}); n != 0 {
			t.Errorf("%s of plain text: %v allocations, want 0", name, n)
		}
	}
}

func TestFindMissing(t *testing.T) {
	doc := MustParseDocument(sampleDoc)
	if _, ok := doc.Find("absent"); ok {
		t.Error("Find(absent) found")
	}
	if got := doc.FindAll("absent"); len(got) != 0 {
		t.Error("FindAll(absent) nonempty")
	}
}

func TestValidateAnyAndEmpty(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc ANY>
<!ELEMENT leaf EMPTY>
]>`)
	doc := MustParseDocument(`<doc><leaf></leaf><leaf></leaf></doc>`)
	if err := Validate(doc, d); err != nil {
		t.Errorf("ANY content rejected: %v", err)
	}
	badLeaf := MustParseDocument(`<doc><leaf>text</leaf></doc>`)
	if err := Validate(badLeaf, d); err == nil {
		t.Error("EMPTY with text accepted")
	}
}

func TestModelString(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (a?, b*, c+)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
]>`)
	m, _ := d.Element("doc")
	s := m.String()
	for _, frag := range []string{"a?", "b*", "c+"} {
		if !strings.Contains(s, frag) {
			t.Errorf("model String missing %q: %s", frag, s)
		}
	}
}
