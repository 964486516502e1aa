package xmltree

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unsafe"
)

// ParseOptions control how Parse builds a tree.
type ParseOptions struct {
	// KeepWhitespace keeps text nodes that consist entirely of XML
	// whitespace. The default (false) drops them, which matches how the
	// paper's trees are drawn: only structurally meaningful nodes count.
	KeepWhitespace bool
	// KeepComments keeps comment nodes. Default: dropped.
	KeepComments bool
	// KeepProcInsts keeps processing instructions. Default: dropped.
	KeepProcInsts bool
}

// Parse reads an XML document from r and returns its Document node using
// default options (whitespace-only text, comments and processing
// instructions dropped).
func Parse(r io.Reader) (*Node, error) {
	return ParseWith(r, ParseOptions{})
}

// ParseString parses an XML document held in a string. The tree does not
// point into s.
func ParseString(s string) (*Node, error) {
	return parse(s, ParseOptions{})
}

// ParseFragment parses one serialized XML element into a detached subtree,
// ready to be inserted into another tree — the form structural inserts
// travel in (a request body, a WAL record).
func ParseFragment(s string) (*Node, error) {
	doc, err := ParseString(s)
	if err != nil {
		return nil, err
	}
	el := doc.DocumentElement()
	if el == nil {
		return nil, errors.New("xmltree: fragment holds no element")
	}
	el.Detach()
	return el, nil
}

// ParseWith reads r to the end and parses it as one XML document (XML 1.0
// in UTF-8, namespaces as written) into a Node tree:
//
//   - elements and attributes keep their local names, and xmlns
//     declarations are dropped;
//   - adjacent character data — text, CDATA sections, text on either side
//     of a comment or processing instruction that is dropped — is one text
//     node;
//   - references to the five predefined entities and character references
//     are resolved, and no others are accepted;
//   - CR and CRLF become LF outside comments and processing instructions;
//   - the XML declaration and a DOCTYPE, internal subset included, are read
//     and dropped.
//
// A document with more than one root element, character data other than
// whitespace outside its root, an attribute repeated, mismatched tags,
// invalid UTF-8 or characters outside XML's Char production is rejected.
func ParseWith(r io.Reader, opts ParseOptions) (*Node, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	// b is the parse's own and the tree never points into it (see scanner),
	// so it can be read as a string without a copy.
	return parse(unsafe.String(unsafe.SliceData(b), len(b)), opts)
}

// WriteXML serializes the subtree rooted at n to w as XML. Document nodes
// serialize their children in order; text is escaped.
func WriteXML(w io.Writer, n *Node) error {
	bw := &errWriter{w: w}
	writeNode(bw, n)
	return bw.err
}

// Serialize returns the XML serialization of the subtree rooted at n.
func Serialize(n *Node) string {
	var b strings.Builder
	if err := WriteXML(&b, n); err != nil {
		panic(err) // strings.Builder never fails
	}
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func writeNode(w *errWriter, n *Node) {
	switch n.Kind {
	case Document:
		for i := 0; i < n.NumChildren(); i++ {
			writeNode(w, n.Child(i))
		}
	case Element:
		w.str("<")
		w.str(n.Name)
		for _, a := range n.Attrs() {
			w.str(" ")
			w.str(a.Name)
			w.str(`="`)
			w.str(escapeAttr(a.Data))
			w.str(`"`)
		}
		if n.NumChildren() == 0 {
			w.str("/>")
			return
		}
		w.str(">")
		for i := 0; i < n.NumChildren(); i++ {
			writeNode(w, n.Child(i))
		}
		w.str("</")
		w.str(n.Name)
		w.str(">")
	case Text:
		w.str(escapeText(n.Data))
	case Comment:
		w.str("<!--")
		w.str(n.Data)
		w.str("-->")
	case ProcInst:
		w.str("<?")
		w.str(n.Name)
		if n.Data != "" {
			w.str(" ")
			w.str(n.Data)
		}
		w.str("?>")
	case Attribute:
		w.str(escapeAttr(n.Data))
	}
}

// The escapers write CR as a reference: parsing turns a literal one into LF,
// so the tree would not read back.
var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\r", "&#13;",
)

func escapeText(s string) string { return textEscaper.Replace(s) }
func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// ParseFile parses the XML document in the named file.
func ParseFile(path string) (*Node, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// WriteFile serializes the subtree rooted at n into the named file.
func WriteFile(path string, n *Node) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteXML(f, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
