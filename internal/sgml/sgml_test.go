package sgml

import (
	"strings"
	"testing"
	"unsafe"
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

// event is one element a Scanner reported.
type event struct {
	name     string
	children int
	text     string
}

// recorder is a Sink that keeps what it is told.
type recorder []event

func (r *recorder) Element(name string, children int, text string) {
	*r = append(*r, event{name, children, text})
}

// markup is a Sink that renders the document back as markup, each
// child element on a line of its own when pretty.
type markup struct {
	pretty bool
	done   []string // the rendered elements whose parent is still open
}

func (m *markup) Element(name string, children int, text string) {
	body := Escape(text)
	if children > 0 {
		sep := ""
		if m.pretty {
			sep = "\n"
		}
		top := len(m.done) - children
		body = sep + strings.Join(m.done[top:], sep) + sep
		m.done = m.done[:top]
	}
	m.done = append(m.done, "<"+name+">"+body+"</"+name+">")
}

func scan(t *testing.T, src string) recorder {
	t.Helper()
	var r recorder
	var s Scanner
	if err := s.Scan(src, nil, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// render scans src into markup.
func render(src string, pretty bool) (string, error) {
	m := &markup{pretty: pretty}
	var s Scanner
	if err := s.Scan(src, nil, m); err != nil {
		return "", err
	}
	return m.done[0], nil
}

// validate scans src against d.
func validate(src string, d *DTD) error {
	var s Scanner
	return s.Scan(src, d, new(recorder))
}

func TestParseDocument(t *testing.T) {
	events := scan(t, sampleDoc)
	texts := map[string][]string{}
	children := map[string][]int{}
	for _, e := range events {
		texts[e.name] = append(texts[e.name], e.text)
		children[e.name] = append(children[e.name], e.children)
	}
	if root := events[len(events)-1]; root.name != "brochure" || root.children != 5 {
		t.Fatalf("document element = %+v", root)
	}
	if got := texts["title"]; len(got) != 1 || got[0] != "Golf" {
		t.Errorf("title = %q", got)
	}
	if got := texts["desc"]; got[0] != "Nice & compact" {
		t.Errorf("entity decoding wrong: %q", got)
	}
	if got := children["spplrs"]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("suppliers = %v", got)
	}
	if got := texts["name"]; len(got) != 2 || got[1] != "VW2" {
		t.Errorf("supplier names = %q", got)
	}
	// Text without a reference stays a substring of the document.
	title := texts["title"][0]
	if i := strings.Index(sampleDoc, "Golf"); unsafe.StringData(title) != unsafe.StringData(sampleDoc[i:]) {
		t.Error("title text was copied")
	}
}

func TestDocumentStringRoundTrip(t *testing.T) {
	flat, err := render(sampleDoc, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := render(flat, false)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, flat)
	}
	if again != flat {
		t.Errorf("round trip unstable")
	}
	// Pretty output parses too.
	pretty, _ := render(sampleDoc, true)
	back, err := render(pretty, false)
	if err != nil {
		t.Fatalf("pretty reparse: %v", err)
	}
	if back != flat {
		t.Errorf("pretty round trip changed content")
	}
}

func TestParseDocumentWithInlineDoctype(t *testing.T) {
	events := scan(t, BrochureDTDSource+"\n"+sampleDoc)
	if root := events[len(events)-1].name; root != "brochure" {
		t.Errorf("root = %q", root)
	}
}

func TestParseDocumentErrors(t *testing.T) {
	cases := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a><b></b>text</a>`, // mixed content
		`<a>text<b></b></a>`, // mixed content
		`<a><b></b><!-- c -->text<c></c></a>`,
		`<a></a><b></b>`, // two roots
		`text only`,
		`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)>`,
		`<a><!-- c</a>`,
		`<a></a`,
	}
	for _, src := range cases {
		var s Scanner
		if err := s.Scan(src, nil, new(recorder)); err == nil {
			t.Errorf("Scan(%q) should fail", src)
		}
	}
}

// TestScanText pins how character data is read: comments split it and
// vanish, surrounding white space (Unicode's too) is trimmed, blank
// text between child elements is dropped, and a comment can join the
// halves of a space rune.
func TestScanText(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`<a>foo<!-- c -->bar</a>`, "foobar"},
		{`<a> foo <!-- c --> bar </a>`, "foo  bar"},
		{"<a>\u00a0x\u2003</a>", "x"},
		{"<a> \xc2<!---->\x85 </a>", ""},
		{`<a>&#233;t&#xE9;</a>`, "été"},
		{`<a></a>`, ""},
	} {
		if got := scan(t, c.src)[0].text; got != c.want {
			t.Errorf("%q: text %q, want %q", c.src, got, c.want)
		}
	}
	for _, c := range []struct {
		src      string
		children int
	}{
		{"<a><b></b> \n\t<!-- c --> <c></c>\u00a0</a>", 2},
		{"<a>\xc2<b></b>\x85</a>", 1},
	} {
		if root := scan(t, c.src)[c.children]; root.children != c.children {
			t.Errorf("%q: %+v", c.src, root)
		}
	}
}

// TestScanAllocs pins the one pass: a document of plain text elements
// scans without an allocation once the scanner's stacks have grown.
func TestScanAllocs(t *testing.T) {
	var s Scanner
	var r recorder
	if err := s.Scan(sampleDoc, nil, &r); err != nil {
		t.Fatal(err)
	}
	plain := strings.Replace(sampleDoc, "&amp;", "and", 1)
	if n := testing.AllocsPerRun(100, func() {
		r = r[:0]
		if err := s.Scan(plain, nil, &r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("scanning allocates %v times, want 0", n)
	}
}

func TestValidate(t *testing.T) {
	d := BrochureDTD()
	if err := validate(sampleDoc, d); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
	for _, c := range []struct{ why, src string }{
		{"missing elements", `<brochure><number>1</number><title>t</title></brochure>`},
		{"wrong element order", `<brochure><title>t</title><number>1</number>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`},
		{"wrong root", `<other></other>`},
		{"incomplete supplier", `<brochure><number>1</number><title>t</title>
		<model>1990</model><desc>d</desc>
		<spplrs><supplier><name>n</name></supplier></spplrs></brochure>`},
		{"children under #PCDATA", `<brochure><number><title>y</title></number><title>t</title>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`},
	} {
		if err := validate(c.src, d); err == nil {
			t.Errorf("%s accepted", c.why)
		}
	}
	// Zero suppliers is fine: (supplier)*.
	if err := validate(`<brochure><number>1</number><title>t</title>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`, d); err != nil {
		t.Errorf("empty spplrs rejected: %v", err)
	}
}

func TestValidateChoiceAndPlus(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc (head?, (para | list)+)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (para)+>
]>`)
	if err := validate(`<doc><para>a</para><list><para>b</para></list></doc>`, d); err != nil {
		t.Errorf("valid choice document rejected: %v", err)
	}
	if err := validate(`<doc></doc>`, d); err == nil {
		t.Error("(x)+ with zero occurrences accepted")
	}
	if err := validate(`<doc><list></list></doc>`, d); err == nil {
		t.Error("empty (para)+ list accepted")
	}
}

func TestEscapeUnescape(t *testing.T) {
	raw := `a < b & c > "d" 'e' &#38;`
	if got := Unescape(Escape(raw)); got != raw {
		t.Errorf("escape round trip: %q", got)
	}
}

// TestUnescapeCharRefs pins the numeric character references: decoded
// in the one pass with the named entities, literal when they name no
// character.
func TestUnescapeCharRefs(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"&#233;", "é"},
		{"&#xE9;", "é"},
		{"&#XE9;", "é"},
		{"&#xe9;t&#233;", "été"},
		{"&#60;&#x3E;", "<>"},
		{"&#0065;", "A"},
		{"&#00000065;", "&#00000065;"},
		{"&#x+41;", "&#x+41;"},
		{"&#1_0;", "&#1_0;"},
		{"&#x10FFFF;", "\U0010FFFF"},
		{"&amp;#38;", "&#38;"},
		{"&#38;amp;", "&amp;"},
		{"&#38;#38;", "&#38;"},
		{"&#0;", "&#0;"},
		{"&#xD800;", "&#xD800;"},
		{"&#57343;", "&#57343;"},
		{"&#x110000;", "&#x110000;"},
		{"&#99999999999999999999;", "&#99999999999999999999;"},
		{"&#;", "&#;"},
		{"&#x;", "&#x;"},
		{"&#12", "&#12"},
		{"&#12a;", "&#12a;"},
		{"&#xG;", "&#xG;"},
		{"&# 12;", "&# 12;"},
		{"&unknown; &", "&unknown; &"},
		{"a&lt;b&#62;c", "a<b>c"},
	} {
		if got := Unescape(c.in); got != c.want {
			t.Errorf("Unescape(%q) = %q, want %q", c.in, got, c.want)
		}
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

func TestValidateAnyAndEmpty(t *testing.T) {
	d := MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc ANY>
<!ELEMENT leaf EMPTY>
]>`)
	if err := validate(`<doc><leaf></leaf><leaf></leaf></doc>`, d); err != nil {
		t.Errorf("ANY content rejected: %v", err)
	}
	if err := validate(`<doc><leaf>text</leaf></doc>`, d); err == nil {
		t.Error("EMPTY with text accepted")
	}
	if err := validate(`<doc><other></other></doc>`, d); err == nil {
		t.Error("undeclared element under ANY accepted")
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
