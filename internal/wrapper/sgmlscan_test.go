package wrapper

import (
	"testing"

	"yat/internal/sgml"
	"yat/internal/tree"
	"yat/internal/workload"
)

// fuzzDTDs are the document types FuzzImportSGML validates against,
// picked by its mode: none, the paper's brochure DTD, and one with
// every content-model construct.
var fuzzDTDs = []*sgml.DTD{nil, sgml.BrochureDTD(), sgml.MustParseDTD(`<!DOCTYPE doc [
<!ELEMENT doc  (head?, (para | list)+, tail?)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (para)+>
<!ELEMENT tail (leaf | free)*>
<!ELEMENT leaf EMPTY>
<!ELEMENT free ANY>
]>`)}

// sgmlSeeds are documents at the scanner's edges: comments inside and
// between text, entities and character references, a DOCTYPE with an
// internal subset, mixed content, unterminated and mismatched tags,
// non-ASCII names and white space. The mode is FuzzImportSGML's: 0
// imports, 1 and 2 validate against a fuzzDTDs entry.
var sgmlSeeds = []struct {
	src  string
	mode uint8
}{
	{`<a>foo<!-- c -->bar</a>`, 0},
	{`<a> foo <!-- c --> bar </a>`, 0},
	{`<a><!-- c -->x</a>`, 0},
	{`<a>x<!-- c --></a>`, 0},
	{`<a><b>1</b><!-- c --> <c>2</c></a>`, 0},
	{`<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos; &unknown; &</a>`, 0},
	{`<a>&#233;t&#xE9; &#XE9; &#38;amp; &amp;#38; &#0; &#xD800; &#x110000; &#99999999999; &#; &#x; &#12</a>`, 0},
	{sgml.BrochureDTDSource + "\n<!-- c -->\n" + `<brochure><number>1</number><title>t</title>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`, 1},
	{`<!DOCTYPE x [ <!ELEMENT x (#PCDATA)> ]><x>1</x>`, 0},
	{`<!DOCTYPE x [ <!ELEMENT x (#PCDATA)>`, 0},
	{`<a><b></b>text</a>`, 0},
	{`<a>text<b></b></a>`, 0},
	{`<a><b></b><!-- c -->text<c></c></a>`, 0},
	{"<a>\xc2<b></b>\x85</a>", 0},
	{"<a><b></b>\xc2<!---->\x85</a>", 0},
	{"<a> \xc2<!---->\x85 </a>", 0},
	{`<a>`, 0},
	{`<a><b></a>`, 0},
	{`<a></b>`, 0},
	{`<a></a`, 0},
	{`<a x="1"`, 0},
	{`<a><!-- unterminated</a>`, 0},
	{`<a></a><b></b>`, 0},
	{`text only`, 0},
	{``, 0},
	{"<été>ça</été>", 0},
	{"<a>\u00a0x\u2003</a>", 0},
	{"\u00a0\u0085<a>\u3000<b>1</b>\u2028</a>\u00a0", 0},
	{"<a>\xff</a>", 0},
	{`<a x="1" y='2'><b>1.5</b><c>true</c><d>-7</d><e>1e400</e></a>`, 0},
	{`<brochure><title>t</title><number>1</number>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`, 1},
	{`<brochure><number><x>y</x></number><title>t</title>
		<model>1990</model><desc>d</desc><spplrs></spplrs></brochure>`, 1},
	{`<other></other>`, 1},
	{`<doc><head>h</head><para>a</para><list><para>b</para></list><tail><leaf></leaf><free><x>1</x></free></tail></doc>`, 2},
	{`<doc><list></list></doc>`, 2},
	{`<doc><para>a</para><tail><leaf>text</leaf></tail></doc>`, 2},
	{`<doc>text</doc>`, 2},
}

// FuzzImportSGML holds the one-pass import to the two-pass reference:
// the same trees with the same atom kinds, or an error from both.
//
//	go test ./internal/wrapper/ -run FuzzImportSGML -fuzz=FuzzImportSGML -fuzztime=30s
func FuzzImportSGML(f *testing.F) {
	docs := workload.BrochureDocs(4, 3, 5, 7)
	for _, name := range sortedKeys(docs) {
		f.Add(docs[name], uint8(0))
		f.Add(docs[name], uint8(1))
	}
	for _, s := range sgmlSeeds {
		f.Add(s.src, s.mode)
	}
	f.Fuzz(func(t *testing.T, src string, mode uint8) {
		dtd := fuzzDTDs[int(mode)%len(fuzzDTDs)]
		for _, infer := range []bool{true, false} {
			opts := &SGMLOptions{InferTypes: infer, DTD: dtd}
			checkImportMatchesReference(t, map[string]string{"d": src}, opts)
		}
	})
}

// TestImportSGMLMatchesReference holds the one-pass import of the
// benchmark's documents, validated and not, to the reference.
func TestImportSGMLMatchesReference(t *testing.T) {
	docs, _ := workload.ConvertBatchSources(42)
	checkImportMatchesReference(t, docs, nil)
	checkImportMatchesReference(t, docs, &SGMLOptions{DTD: sgml.BrochureDTD()})
}

func checkImportMatchesReference(t *testing.T, docs map[string]string, opts *SGMLOptions) {
	t.Helper()
	got, err := ImportSGML(docs, opts)
	want, refErr := refImportSGML(docs, opts)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("one pass: %v; reference: %v; documents %q", err, refErr, docs)
	case err != nil:
		return
	}
	gotNames, wantNames := got.Names(), want.Names()
	if len(gotNames) != len(wantNames) {
		t.Fatalf("one pass imported %d documents, reference %d", len(gotNames), len(wantNames))
	}
	for i, name := range wantNames {
		if !gotNames[i].Equal(name) {
			t.Fatalf("document %d: one pass %s, reference %s", i, gotNames[i], name)
		}
		g, _ := got.Get(name)
		w, _ := want.Get(name)
		if !sameTree(g, w) {
			t.Fatalf("%s:\none pass:  %s\nreference: %s\ndocument %q", name, g, w, docs[name.Functor])
		}
	}
}

// sameTree is tree equality that also holds each label to its kind:
// Int 1 and Float 1 differ.
func sameTree(a, b *tree.Node) bool {
	if a.Label.Kind() != b.Label.Kind() || !a.Label.Equal(b.Label) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

// TestImportSGMLAllocs pins the allocations of importing the
// convert_batch brochures, 40 of them: ≈ 490, nearly all boxed atoms,
// the rest the trees' blocks and the store. The two-pass import made
// ≈ 2 560. The ceiling sits about 10 % above the count.
func TestImportSGMLAllocs(t *testing.T) {
	docs, _ := workload.ConvertBatchSources(42)
	got := testing.AllocsPerRun(5, func() {
		if _, err := ImportSGML(docs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 540.0; got > budget {
		t.Errorf("importing the convert_batch brochures allocates %.0f times, want <= %.0f", got, budget)
	}
	t.Logf("%.0f allocations", got)
}
