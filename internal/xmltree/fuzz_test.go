package xmltree

import (
	"strings"
	"testing"
)

// FuzzParseXML throws arbitrary bytes at the XML parser: it must either
// error out or return a well-formed tree (parented children, a document
// element for element content) — and serializing that tree must reparse
// without error. It must never panic.
func FuzzParseXML(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a><b>text</b></a>",
		`<a x="1" y="2"><b/><c/></a>`,
		"<a><!-- comment --><b/></a>",
		"<?xml version=\"1.0\"?><root><child/></root>",
		"<a>&lt;&amp;&gt;</a>",
		"<a><b><c><d>deep</d></c></b></a>",
		"<a>mixed<b/>content</a>",
		"<a",
		"</a>",
		"<a></b>",
		"<a><b></a></b>",
		"text only",
		"",
		"<a ",
		"<a x=></a>",
		"<\x00a/>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		var check func(n *Node)
		check = func(n *Node) {
			for ci := 0; ci < n.Children.Len(); ci++ {
				c := n.Children.At(ci)
				if c.Parent != n {
					t.Fatalf("child %v not parented to %v", c, n)
				}
				check(c)
			}
		}
		check(doc)
		root := doc.DocumentElement()
		if root == nil {
			return // e.g. all-comment input
		}
		// The serialized form of an accepted document must be accepted too.
		if _, err := ParseString(Serialize(root)); err != nil {
			t.Fatalf("serialize-reparse failed: %v\n%s", err, Serialize(root))
		}
	})
}
