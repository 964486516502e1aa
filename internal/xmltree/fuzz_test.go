package xmltree

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// parseSeeds is FuzzParseXML's corpus, which FuzzParseAgree starts from too.
var parseSeeds = []string{
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
	// Round trips that once changed the tree or failed.
	"<a>x<![CDATA[y]]>z</a>",
	"<a>x<!--c-->y</a>",
	"<a>x<?p?>y</a>",
	"<a x='&#13;'>&#13;</a>",
	"<p:1a/>",
}

// prefixSeeds put attributes in front of children in the one sequence an
// element holds: in chunk 0 of a wide one, alone, and a repeat the parser
// must reject. Both fuzz targets end their corpus with them.
var prefixSeeds = []string{
	`<a x="1" y="2">` + strings.Repeat("<b/>t", 40) + `</a>`,
	`<a><b x="1" y="2"/><c z="3"></c><d w="4">` + strings.Repeat(`<e v="5"/>`, 65) + `</d></a>`,
	`<a><b/><c x="1" y="2" x="3"><d/></c></a>`,
}

// FuzzParseXML throws arbitrary bytes at the XML parser: it must either
// error out or return a well-formed tree (parented children and
// attributes, a document element), serializing that tree must reparse
// without error, and the reparse must be the same tree. It must never
// panic.
func FuzzParseXML(f *testing.F) {
	for _, s := range slices.Concat(parseSeeds, prefixSeeds) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParented(t, doc)
		root := doc.DocumentElement()
		if root == nil {
			t.Fatalf("accepted a document without a root element: %q", data)
		}
		out := Serialize(root)
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("serialize-reparse failed: %v\n%s", err, out)
		}
		if !equalTrees(root, back.DocumentElement()) {
			t.Fatalf("serialize-reparse changed the tree:\n in %q\nout %q\nreparsed %q", data, out, Serialize(back))
		}
	})
}

// checkParented fails unless every child and attribute below n points up to
// the node that holds it, and n's sequence leads with exactly its attributes.
func checkParented(t *testing.T, n *Node) {
	t.Helper()
	for _, a := range n.Attrs() {
		if a.Parent != n || a.Kind != Attribute {
			t.Fatalf("attribute %v not parented to %v", a, n)
		}
	}
	for ci := 0; ci < n.NumChildren(); ci++ {
		c := n.Child(ci)
		if c.Parent != n || c.Kind == Attribute {
			t.Fatalf("child %v not parented to %v", c, n)
		}
		checkParented(t, c)
	}
}

// agreeSeeds are inputs at the edges of what the parser accepts, beside
// parseSeeds and generator output.
var agreeSeeds = []string{
	// Entities and character references.
	"<a>&lt;&gt;&amp;&apos;&quot;</a>",
	`<a x="&lt;&amp;&quot;&apos;&gt;"/>`,
	"<a>&foo;</a>", "<a>&amp</a>", "<a>&amp x;</a>", "<a>&#;</a>", "<a>&#x;</a>",
	"<a>&#65;&#x42;&#x4a;&#X43;</a>", "<a>&#0;</a>", "<a>&#xD800;</a>", "<a>&#x110000;</a>",
	"<a>&#xFFFE;</a>", "<a>&#13;</a>", "<a>&#00000065;</a>", "<a>&#99999999999999999999999;</a>",
	"<a>&#x1F600;</a>", "<a>&#65</a>",
	// CDATA.
	"<a><![CDATA[]]></a>", "<a><![CDATA[<&>]]]></a>", "<![CDATA[ ]]><a/>", "<![CDATA[x]]><a/>",
	"<a><![CDATA[x</a>", "<a><![CDAT[x]]></a>", "<a>]]></a>", "<a>]]&gt;</a>", "<a>]&#93;></a>",
	"<a x=']]>'/>",
	// Comments and processing instructions.
	"<a><!----></a>", "<a><!-- a -- b --></a>", "<!--pre--><a/><!--post-->", "<a><!---></a>",
	"<a><!-- x ---></a>", "<a><!-></a>", "<a><?p data?></a>", "<a><?p?x?></a>", "<?p:q:r x?><a/>",
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`,
	`<?xml encoding="latin1"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`, "<a><?xml?></a>",
	`<?xml version=x version="2"?><a/>`, "<a><?></a>", "<a><? p?></a>",
	// Prefixed names and namespace declarations.
	`<p:a xmlns:p="u" p:x="1" y="2"/>`, "<p:a></q:a>", "<p:a></p:a>", "<a:b:c/>", "<:a/>", "<a:/>",
	"<p:1a/>", "<p:-a/>", `<a p:x="1" q:x="2"/>`, `<a x="1" p:x="2"/>`, `<a xmlns="u" xmlns:p="v"/>`,
	`<a xmlns:="x"/>`, `<a xmlns:p="1" xmlns:p="2"/>`, `<a p:xmlns="1"/>`, `<a :xmlns="1"/>`,
	"<\u00e9/>", "<a\u00e9/>", "<a\u0300/>", "<\u0300a/>", "<a\u00b7/>", "<a\u00a0/>",
	// DOCTYPE, with and without an internal subset.
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ENTITY e "x>y"><!-- c > --> ]><a/>`,
	`<!DOCTYPE a SYSTEM "a.dtd"><a/>`, "<!DOCTYPE a [ <]><a/>", "<!DOCTYPE a [ <> ]><a/>",
	"<!DOCTYPE a [ <!-- --> <!-x> ]><a/>", "<!>a/>", "<!DOCTYPE 'a>'><a/>", "<!DOCTYPE a",
	// CR and CRLF.
	"<a>x\r\ny\rz\r\r\n</a>", "<a x=\"1\r\n2\r3\"/>", "<a>\r</a>", "<a><![CDATA[\r\n\r]]></a>",
	"<a><!--\r\n--></a>", "<a><?p \r\n?></a>", "<a>\r<b/>\n</a>", "<a>\r&#10;</a>",
	// Invalid UTF-8 and characters outside Char.
	"<a>\xff</a>", "<a x=\"\xc3\"/>", "<a\xff/>", "<a><!--\xff--></a>", "<a><?p \xff?></a>",
	"<a>\xed\xa0\x80</a>", "<a>\x01</a>", "<a>\uFFFE</a>", "<a>\xc3&amp;</a>", "<a>\U0001F600</a>",
	"<a x=\"\x00\"/>", "<a><![CDATA[\x0b]]></a>",
	// Whitespace text.
	"<a> </a>", "<a>&#160;</a>", "<a>\u2003</a>", "<a>\u00a0</a>", "<a> <b/> \t\n<c/> </a>",
	"<a> <!--c--> </a>", "<a> <?p?> </a>", "<a> <![CDATA[ ]]> </a>", "<a>&#32;&#9;&#13;</a>",
	"<a>x <!--c--> y</a>", "<a><b> </b> <c>z</c></a>",
	// Well-formedness at the top level.
	"<a/><b/>", "<a>x</a>trailing", "<a x='1' x='2'/>", "lead<a/>", "<a/> \n\t", "\uFEFF<a/>",
	"<a/>\uFEFF", "<a/><!--c--><?p?>", "<a/>&#32;", "<a/>&#65;", "<a/></a>", "<a>",
	// Attributes.
	`<a x="1"y="2"/>`, "<a x = '1' />", "<a x=1/>", `<a x="<"/>`, "<a x=\"a\tb\nc\"/>",
	`<a x="1"`, `<a x="1`, "<a x/>", "<a/ >", "<a></a >", "<a></a\n>", "<a></ a>",
}

// agreeDocs returns generator output for FuzzParseAgree's corpus, serialized
// flat and indented.
func agreeDocs() []string {
	var out []string
	for _, d := range []*Node{XMark(1, 1), DBLP(4, 1), Shakespeare(1, 1, 2)} {
		s := Serialize(d)
		out = append(out, s, strings.ReplaceAll(s, "><", ">\n  <"))
	}
	return out
}

// FuzzParseAgree holds the scanner to the encoding/xml reference parser
// (referenceParse): under every combination of ParseOptions both accept an
// input and build the same tree — kinds, names, data, attribute order,
// children — or both reject it.
func FuzzParseAgree(f *testing.F) {
	for _, s := range slices.Concat(parseSeeds, agreeSeeds, agreeDocs(), prefixSeeds) {
		for flags := uint8(0); flags < 8; flags++ {
			f.Add([]byte(s), flags)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		opts := ParseOptions{KeepWhitespace: flags&1 != 0, KeepComments: flags&2 != 0, KeepProcInsts: flags&4 != 0}
		got, err := ParseWith(bytes.NewReader(data), opts)
		want, werr := referenceParse(string(data), opts)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%+v on %q: scanner error %v, reference error %v", opts, data, err, werr)
		}
		if err != nil {
			return
		}
		checkParented(t, got)
		if !equalTrees(got, want) {
			t.Fatalf("%+v on %q:\nscanner   %q\nreference %q", opts, data, Serialize(got), Serialize(want))
		}
	})
}
