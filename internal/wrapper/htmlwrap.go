package wrapper

import (
	"fmt"
	"sort"
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

// appendURL appends the URL of page identity n.
func (o *HTMLOptions) appendURL(dst []byte, n tree.Name) []byte {
	if o != nil && o.URL != nil {
		return append(dst, o.URL(n)...)
	}
	return appendSanitizedURL(dst, n)
}

func (o *HTMLOptions) functor() string {
	if o != nil && o.PageFunctor != "" {
		return o.PageFunctor
	}
	return "HtmlPage"
}

// SanitizeURL is the default identity-to-URL mapping: the canonical
// key with every rune but an ASCII letter or digit replaced by '_', and
// ".html".
func SanitizeURL(n tree.Name) string {
	var kb [128]byte
	return string(appendSanitizedURL(kb[:0], n))
}

// appendSanitizedURL appends SanitizeURL(n) to dst. The key is
// appended and then sanitized in place: each rune becomes one byte, so
// the write position never passes the read position.
func appendSanitizedURL(dst []byte, n tree.Name) []byte {
	start := len(dst)
	dst = n.AppendKey(dst)
	w := start
	for r := start; r < len(dst); {
		c, size := dst[r], 1
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c >= utf8.RuneSelf:
			_, size = utf8.DecodeRune(dst[r:])
			c = '_'
		default:
			c = '_'
		}
		dst[w] = c
		w++
		r += size
	}
	return append(dst[:w], ".html"...)
}

// ExportHTML renders every page object of a conversion result into
// HTML text, returning URL → document. Anchors (&HtmlPage(...)
// references under href) resolve to the target page's URL. Two
// distinct page identities mapping to the same URL (SanitizeURL is
// lossy) is an error naming both identities — one page silently
// overwriting the other would lose content. Each page renders into one
// buffer, reused from page to page, and leaves it as one string; URLs
// and escaped text are appended in place.
func ExportHTML(outputs *tree.Store, opts *HTMLOptions) (map[string]string, error) {
	pages := map[string]string{}
	owner := map[string]tree.Name{}
	buf := make([]byte, 0, 1024)
	for _, e := range outputs.Entries() {
		if e.Name.Functor != opts.functor() {
			continue
		}
		url := string(opts.appendURL(buf[:0], e.Name))
		if prev, clash := owner[url]; clash {
			return nil, fmt.Errorf("wrapper: URL collision: pages %s and %s both map to %q", prev, e.Name, url)
		}
		owner[url] = e.Name
		var err error
		buf, err = appendHTML(append(buf[:0], "<!DOCTYPE html>\n"...), e.Tree, opts)
		if err != nil {
			return nil, fmt.Errorf("wrapper: rendering page %s: %w", e.Name, err)
		}
		buf = append(buf, '\n')
		pages[url] = string(buf)
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

// appendHTML renders one YAT html tree as markup. Symbol nodes become
// tags, atom leaves become text; the anchor shape produced by rule
// Web6 — a < href -> &Page, cont -> X > — becomes <a href="url">.
func appendHTML(b []byte, n *tree.Node, opts *HTMLOptions) ([]byte, error) {
	var err error
	switch label := n.Label.(type) {
	case tree.Symbol:
		if n.IsLeaf() {
			// A leaf symbol is data (a class name like `car` under h1),
			// not markup.
			return appendEscaped(b, string(label)), nil
		}
		if string(label) == "a" {
			if href, cont, ok := anchorParts(n); ok {
				b = appendHref(b, href, opts)
				if b, err = appendHTML(b, cont, opts); err != nil {
					return b, err
				}
				return append(b, "</a>"...), nil
			}
		}
		b = append(append(append(b, '<'), label...), '>')
		for _, c := range n.Children {
			if b, err = appendHTML(b, c, opts); err != nil {
				return b, err
			}
		}
		return append(append(append(b, "</"...), label...), '>'), nil
	case tree.String:
		return appendEscaped(b, string(label)), nil
	case tree.Int, tree.Float, tree.Bool:
		// Digits, signs, points, e, Inf, NaN, true, false: nothing to
		// escape.
		return tree.AppendDisplay(b, label), nil
	case tree.Ref:
		// A bare reference renders as a link to the page if it is
		// one, else as its name.
		b = appendHref(b, label.Name, opts)
		b = appendEscaped(b, label.Name.String())
		return append(b, "</a>"...), nil
	default:
		return b, fmt.Errorf("cannot render label %s", n.Label.Display())
	}
}

// appendHref opens an anchor to page identity n.
func appendHref(b []byte, n tree.Name, opts *HTMLOptions) []byte {
	b = append(b, `<a href="`...)
	b = opts.appendURL(b, n)
	return append(b, `">`...)
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

// appendEscaped appends s with the HTML specials & < > " escaped.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		default:
			continue
		}
		b = append(append(b, s[last:i]...), esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}
