package wrapper

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"yat/internal/tree"
)

// HTMLOptions configures HTML export.
type HTMLOptions struct {
	// URL maps a page identity to its URL; the default sanitizes the
	// canonical key into "<key>.html". "It is the HTML wrapper's
	// responsibility to map these pattern identifiers to a real URL"
	// (§4.1).
	URL func(tree.Name) string
	// PageFunctor selects which Skolem functor denotes pages;
	// defaults to "HtmlPage".
	PageFunctor string
}

func (o *HTMLOptions) url(n tree.Name) string {
	if o != nil && o.URL != nil {
		return o.URL(n)
	}
	return SanitizeURL(n)
}

func (o *HTMLOptions) functor() string {
	if o != nil && o.PageFunctor != "" {
		return o.PageFunctor
	}
	return "HtmlPage"
}

// SanitizeURL is the default identity-to-URL mapping: the canonical
// key with every rune but an ASCII letter or digit replaced by '_', and
// ".html". The key is rendered into a stack buffer and the URL into one
// buffer of the key's length.
func SanitizeURL(n tree.Name) string {
	var kb [128]byte
	key := n.AppendKey(kb[:0])
	var b strings.Builder
	b.Grow(len(key) + len(".html"))
	for len(key) > 0 {
		r, size := utf8.DecodeRune(key)
		key = key[size:]
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteByte(byte(r))
		default:
			b.WriteByte('_')
		}
	}
	b.WriteString(".html")
	return b.String()
}

// ExportHTML renders every page object of a conversion result into
// HTML text, returning URL → document. Anchors (&HtmlPage(...)
// references under href) resolve to the target page's URL. Two
// distinct page identities mapping to the same URL (SanitizeURL is
// lossy) is an error naming both identities — one page silently
// overwriting the other would lose content.
func ExportHTML(outputs *tree.Store, opts *HTMLOptions) (map[string]string, error) {
	pages := map[string]string{}
	owner := map[string]tree.Name{}
	for _, e := range outputs.Entries() {
		if e.Name.Functor != opts.functor() {
			continue
		}
		url := opts.url(e.Name)
		if prev, clash := owner[url]; clash {
			return nil, fmt.Errorf("wrapper: URL collision: pages %s and %s both map to %q", prev, e.Name, url)
		}
		owner[url] = e.Name
		var b strings.Builder
		b.WriteString("<!DOCTYPE html>\n")
		if err := renderHTML(&b, e.Tree, opts); err != nil {
			return nil, fmt.Errorf("wrapper: rendering page %s: %w", e.Name, err)
		}
		b.WriteByte('\n')
		pages[url] = b.String()
	}
	return pages, nil
}

// PageURLs lists the exported page URLs in sorted order.
func PageURLs(pages map[string]string) []string {
	out := make([]string, 0, len(pages))
	for u := range pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// renderHTML renders one YAT html tree as markup. Symbol nodes become
// tags, atom leaves become text; the anchor shape produced by rule
// Web6 — a < href -> &Page, cont -> X > — becomes <a href="url">.
func renderHTML(b *strings.Builder, n *tree.Node, opts *HTMLOptions) error {
	switch label := n.Label.(type) {
	case tree.Symbol:
		if n.IsLeaf() {
			// A leaf symbol is data (a class name like `car` under h1),
			// not markup.
			b.WriteString(htmlEscape(string(label)))
			return nil
		}
		if string(label) == "a" {
			if href, cont, ok := anchorParts(n); ok {
				writeHref(b, opts.url(href))
				if err := renderHTML(b, cont, opts); err != nil {
					return err
				}
				b.WriteString("</a>")
				return nil
			}
		}
		b.WriteByte('<')
		b.WriteString(string(label))
		b.WriteByte('>')
		for _, c := range n.Children {
			if err := renderHTML(b, c, opts); err != nil {
				return err
			}
		}
		b.WriteString("</")
		b.WriteString(string(label))
		b.WriteByte('>')
		return nil
	case tree.String:
		b.WriteString(htmlEscape(string(label)))
		return nil
	case tree.Int, tree.Float, tree.Bool:
		b.WriteString(htmlEscape(n.Label.Display()))
		return nil
	case tree.Ref:
		// A bare reference renders as a link to the page if it is
		// one, else as its name.
		writeHref(b, opts.url(label.Name))
		b.WriteString(htmlEscape(label.Name.String()))
		b.WriteString("</a>")
		return nil
	default:
		return fmt.Errorf("cannot render label %s", n.Label.Display())
	}
}

// writeHref opens an anchor to url.
func writeHref(b *strings.Builder, url string) {
	b.WriteString(`<a href="`)
	b.WriteString(url)
	b.WriteString(`">`)
}

// anchorParts recognizes the Web6 anchor shape.
func anchorParts(n *tree.Node) (href tree.Name, cont *tree.Node, ok bool) {
	if len(n.Children) != 2 {
		return tree.Name{}, nil, false
	}
	h, c := n.Children[0], n.Children[1]
	if !h.Label.Equal(tree.Symbol("href")) || !c.Label.Equal(tree.Symbol("cont")) {
		return tree.Name{}, nil, false
	}
	if len(h.Children) != 1 || len(c.Children) != 1 {
		return tree.Name{}, nil, false
	}
	name, isRef := h.Children[0].RefName()
	if !isRef {
		return tree.Name{}, nil, false
	}
	return name, c.Children[0], true
}

// htmlEscaper is built once; a strings.Replacer is safe for concurrent
// use.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }
