package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// referenceParse is the package's parser as it stood on encoding/xml, kept
// as the oracle FuzzParseAgree holds the scanner to. It reads RawToken and
// matches end tags itself — what Token does in strict mode — so that it sees
// names as written, and it applies the package's rules on top of
// encoding/xml's:
//
//   - adjacent character data is one text node, and whitespace-only text
//     (#x20, #x9, #xD, #xA) is dropped unless KeepWhitespace;
//   - a second root element, character data other than whitespace outside
//     the root and an attribute name repeated as written are errors;
//   - the local part of a prefixed name must begin a name, so that the name
//     the tree keeps reads back;
//   - a leading byte order mark is not character data.
func referenceParse(src string, opts ParseOptions) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(strings.TrimPrefix(src, byteOrderMark)))
	doc := NewDocument()
	cur := doc
	var open []xml.Name
	var text strings.Builder
	flush := func() {
		s := text.String()
		text.Reset()
		if s != "" && (opts.KeepWhitespace || !isSpace([]byte(s))) {
			cur.AppendChild(NewText(s))
		}
	}
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			if err := checkLocal(t.Name); err != nil {
				return nil, err
			}
			if cur == doc && doc.DocumentElement() != nil {
				return nil, errors.New("second root element")
			}
			el := NewElement(t.Name.Local)
			seen := map[string]bool{}
			for _, a := range t.Attr {
				raw := a.Name.Local
				if a.Name.Space != "" {
					raw = a.Name.Space + ":" + raw
				}
				if seen[raw] {
					return nil, fmt.Errorf("attribute %s repeated", raw)
				}
				seen[raw] = true
				if err := checkLocal(a.Name); err != nil {
					return nil, err
				}
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			cur.AppendChild(el)
			cur = el
			open = append(open, t.Name)
		case xml.EndElement:
			flush()
			if cur == doc {
				return nil, fmt.Errorf("unbalanced end element %q", t.Name.Local)
			}
			if open[len(open)-1] != t.Name {
				return nil, fmt.Errorf("element %v closed by %v", open[len(open)-1], t.Name)
			}
			open = open[:len(open)-1]
			cur = cur.Parent
		case xml.CharData:
			if cur == doc && !isSpace(t) {
				return nil, errors.New("character data outside the root element")
			}
			if cur != doc {
				text.Write(t)
			}
		case xml.Comment:
			if opts.KeepComments {
				flush()
				cur.AppendChild(NewComment(string(t)))
			}
		case xml.ProcInst:
			if opts.KeepProcInsts && t.Target != "xml" {
				flush()
				cur.AppendChild(NewProcInst(t.Target, string(t.Inst)))
			}
		case xml.Directive:
			// DOCTYPE etc. — ignored.
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("unclosed element %q", cur.Name)
	}
	if doc.DocumentElement() == nil {
		return nil, errors.New("no root element")
	}
	return doc, nil
}

// checkLocal rejects a prefixed name whose local part cannot begin a name.
func checkLocal(n xml.Name) error {
	if r, _ := utf8.DecodeRuneInString(n.Local); n.Space != "" && !isNameStart(r) {
		return fmt.Errorf("invalid name %s:%s", n.Space, n.Local)
	}
	return nil
}

// NewComment returns a detached comment node.
func NewComment(data string) *Node { return &Node{Kind: Comment, Data: data} }

// NewProcInst returns a detached processing-instruction node.
func NewProcInst(target, data string) *Node {
	return &Node{Kind: ProcInst, Name: target, Data: data}
}
