package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
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

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
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

// ParseWith reads an XML document from r into a Node tree.
func ParseWith(r io.Reader, opts ParseOptions) (*Node, error) {
	dec := xml.NewDecoder(r)
	doc := NewDocument()
	cur := doc
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if !opts.KeepWhitespace && strings.TrimSpace(s) == "" {
				continue
			}
			if cur == doc {
				continue // character data outside the root element
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			if opts.KeepComments {
				cur.AppendChild(NewComment(string(t)))
			}
		case xml.ProcInst:
			if opts.KeepProcInsts && t.Target != "xml" {
				cur.AppendChild(NewProcInst(t.Target, string(t.Inst)))
			}
		case xml.Directive:
			// DOCTYPE etc. — ignored.
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("xmltree: parse: unclosed element %q", cur.Name)
	}
	if doc.DocumentElement() == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	return doc, nil
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
		for i := 0; i < n.Children.Len(); i++ {
			writeNode(w, n.Children.At(i))
		}
	case Element:
		w.str("<")
		w.str(n.Name)
		for _, a := range n.Attrs {
			w.str(" ")
			w.str(a.Name)
			w.str(`="`)
			w.str(escapeAttr(a.Data))
			w.str(`"`)
		}
		if n.Children.Len() == 0 {
			w.str("/>")
			return
		}
		w.str(">")
		for i := 0; i < n.Children.Len(); i++ {
			writeNode(w, n.Children.At(i))
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

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

var attrEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;",
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
