package xmltree

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// scanner is one parse: a single pass over the source that builds the tree
// as it goes, with no token values in between. Names are interned, text is
// copied into a few large chunks, and each element's children are gathered
// on a stack shared by every open element and installed once, at their
// final count, when the element closes.
//
// Nothing in the tree points into the source: every Name and Data string is
// cut from a chunk the parse owns. A caller who parses a 3 MB request body
// can drop it afterwards.
type scanner struct {
	src  string
	pos  int // the start of the construct being read
	opts ParseOptions

	// The interned names: the first few in few, which a small document
	// never outgrows, and all of them in names once there are more.
	few   [8]string
	nfew  int
	names map[string]string

	// buf is the chunk text is decoded into. A string cut from it (see cut)
	// is never written again; reserve starts a new chunk rather than grow
	// one. buf[text:] is character data that is not a node yet: adjacent
	// runs of it (text, CDATA, text again across a dropped comment) merge
	// there into one text node.
	buf   []byte
	text  int
	space bool // buf[text:] is XML whitespace only
	root  bool // the root element has been read

	open  []frame  // the open elements, the document node first
	kids  []*Node  // the attributes and children read so far of every open element, in order
	attrs []*Node  // the attributes of the start tag being read
	raw   []string // their names as written, for the Unique Att Spec rule
}

type frame struct {
	n    *Node
	name string // as written, to match the end tag against
	kids int    // where n's attributes, then children, start on the kids stack
}

// textChunk is the size of a text chunk when the input left is larger.
// Chunks are the only allocation text costs, so they are large; a chunk
// lives as long as one string cut from it does.
const textChunk = 64 << 10

// byteOrderMark may begin a document; it is not character data.
const byteOrderMark = "\uFEFF"

func parse(src string, opts ParseOptions) (*Node, error) {
	s := scanner{src: src, opts: opts, space: true}
	s.pos = len(src) - len(strings.TrimPrefix(src, byteOrderMark))
	doc := NewDocument()
	s.open = append(make([]frame, 0, 8), frame{n: doc})
	s.kids = make([]*Node, 0, 16)
	if err := s.run(); err != nil {
		return nil, err
	}
	if len(s.open) > 1 {
		return nil, s.errorf("unclosed element <%s>", s.open[len(s.open)-1].name)
	}
	if !s.root {
		return nil, s.errorf("no root element")
	}
	s.close()
	return doc, nil
}

func (s *scanner) run() error {
	for s.pos < len(s.src) {
		var err error
		switch {
		case s.src[s.pos] != '<':
			err = s.charData()
		case s.pos+1 == len(s.src):
			err = s.eof()
		case s.src[s.pos+1] == '/':
			err = s.endTag()
		case s.src[s.pos+1] == '?':
			err = s.procInst()
		case s.src[s.pos+1] == '!':
			err = s.bang()
		default:
			err = s.startTag()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errorf reports an error in the construct being read; errorAt, one at a
// position inside it.
func (s *scanner) errorf(format string, args ...any) error { return s.errorAt(s.pos, format, args...) }

func (s *scanner) errorAt(at int, format string, args ...any) error {
	line := 1 + strings.Count(s.src[:at], "\n")
	return fmt.Errorf("xmltree: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (s *scanner) eof() error { return s.errorf("unexpected EOF") }

func (s *scanner) top() *Node { return s.open[len(s.open)-1].n }

// charData reads the text up to the next markup.
func (s *scanner) charData() error {
	end := strings.IndexByte(s.src[s.pos:], '<')
	if end < 0 {
		end = len(s.src)
	} else {
		end += s.pos
	}
	s.reserve(end - s.pos)
	mark := len(s.buf)
	if err := s.decode(s.pos, end, &textBytes); err != nil {
		return err
	}
	s.pos = end
	return s.addedText(mark)
}

// addedText takes in the character data just decoded to buf[mark:].
func (s *scanner) addedText(mark int) error {
	if s.space {
		s.space = isSpace(s.buf[mark:])
	}
	if len(s.open) == 1 {
		if !s.space {
			return s.errorf("character data outside the root element")
		}
		s.buf = s.buf[:mark]
	}
	return nil
}

// isSpace reports whether b is XML whitespace only: #x20, #x9, #xD, #xA.
func isSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// flush makes the pending character data a text node of the open element,
// or drops it: whitespace only, unless KeepWhitespace.
func (s *scanner) flush() {
	if s.text == len(s.buf) {
		return
	}
	if s.space && !s.opts.KeepWhitespace {
		s.buf = s.buf[:s.text]
	} else {
		s.kids = append(s.kids, &Node{Kind: Text, Data: s.cut(s.text), Parent: s.top()})
	}
	s.space = true
}

// reserve makes room for n more bytes in buf. When the chunk is full it
// starts a new one and moves the pending character data over; the strings
// already cut stay where they are.
func (s *scanner) reserve(n int) {
	if cap(s.buf)-len(s.buf) >= n {
		return
	}
	pending := s.buf[s.text:]
	b := make([]byte, len(pending), len(pending)+max(n, min(textChunk, len(s.src)-s.pos)))
	copy(b, pending)
	s.buf, s.text = b, 0
}

// cut returns buf[from:] as a string. Its bytes are never written again.
func (s *scanner) cut(from int) string {
	s.text = len(s.buf)
	if from == len(s.buf) {
		return ""
	}
	return unsafe.String(&s.buf[from], len(s.buf)-from)
}

// keep copies v into the chunk. No character data may be pending.
func (s *scanner) keep(v string) string {
	s.reserve(len(v))
	mark := len(s.buf)
	s.buf = append(s.buf, v...)
	return s.cut(mark)
}

// intern returns the parse's copy of name, made the first time it is seen.
func (s *scanner) intern(name string) string {
	if s.names != nil {
		if v, ok := s.names[name]; ok {
			return v
		}
	} else {
		for _, v := range s.few[:s.nfew] {
			if v == name {
				return v
			}
		}
	}
	v := s.keep(name)
	switch {
	case s.nfew < len(s.few):
		s.few[s.nfew] = v
		s.nfew++
	case s.names == nil:
		s.names = make(map[string]string)
		for _, w := range s.few {
			s.names[w] = w
		}
		fallthrough
	default:
		s.names[v] = v
	}
	return v
}

// Byte classes for decode: the bytes that end a plain run in element text,
// in an attribute value and in a CDATA section. Every byte at or above
// 0x80 and every control character is among them, for validation.
var textBytes, attrBytes, cdataBytes = func() (text, attr, cdata [256]bool) {
	for c := range 256 {
		odd := c >= utf8.RuneSelf || c < ' ' && c != '\t' && c != '\n'
		text[c] = odd || c == '&' || c == '>'
		attr[c] = odd || c == '&' || c == '<'
		cdata[c] = odd
	}
	return
}()

// decode appends src[i:end], decoded, to buf, which must have room for
// end-i bytes (decoding never lengthens). It resolves references outside
// CDATA, turns CR and CRLF into LF, and rejects invalid UTF-8, characters
// outside XML's Char production, "<" in an attribute value and "]]>" in
// text.
func (s *scanner) decode(i, end int, special *[256]bool) error {
	b := s.buf
	lit := i // the start of the bytes not yet copied
	run := i // the start of the bytes since the last reference
	for i < end {
		c := s.src[i]
		if !special[c] {
			i++
			continue
		}
		switch {
		case c == '&':
			r, n, err := s.reference(i)
			if err != nil {
				return err
			}
			b = utf8.AppendRune(append(b, s.src[lit:i]...), r)
			i += n
			lit, run = i, i
		case c == '\r':
			b = append(append(b, s.src[lit:i]...), '\n')
			i++
			if i < end && s.src[i] == '\n' {
				i++
			}
			lit = i
		case c == '>':
			if i-run >= 2 && s.src[i-2:i] == "]]" {
				return s.errorAt(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case c == '<':
			return s.errorAt(i, "unescaped < inside quoted string")
		case c < utf8.RuneSelf:
			return s.errorAt(i, "illegal character code %U", rune(c))
		default:
			r, n := utf8.DecodeRuneInString(s.src[i:end])
			if r == utf8.RuneError && n == 1 {
				return s.errorAt(i, "invalid UTF-8")
			}
			if !isChar(r) {
				return s.errorAt(i, "illegal character code %U", r)
			}
			i += n
		}
	}
	s.buf = append(b, s.src[lit:end]...)
	return nil
}

// isChar reports whether r is in XML's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// reference decodes the reference at src[i] == '&' — one of the five
// predefined entities or a character reference — and returns the
// character and the reference's length.
func (s *scanner) reference(i int) (rune, int, error) {
	rest := s.src[i+1:]
	if strings.HasPrefix(rest, "#") {
		j, base := 1, rune(10)
		if strings.HasPrefix(rest[j:], "x") {
			j, base = 2, 16
		}
		first := j
		var v rune
		for ; j < len(rest); j++ {
			d := digit(rest[j])
			if d >= base {
				break
			}
			if v <= utf8.MaxRune {
				v = v*base + d
			}
		}
		if j == first || j == len(rest) || rest[j] != ';' || v > utf8.MaxRune {
			return 0, 0, s.errorAt(i, "invalid character reference &%s", rest[:j])
		}
		if 0xD800 <= v && v <= 0xDFFF {
			v = utf8.RuneError // as encoding/xml, whose string(rune(n)) gives U+FFFD
		}
		if !isChar(v) {
			return 0, 0, s.errorAt(i, "illegal character code %U", v)
		}
		return v, j + 2, nil
	}
	for _, e := range predefined {
		if strings.HasPrefix(rest, e.ref) {
			return e.r, len(e.ref) + 1, nil
		}
	}
	return 0, 0, s.errorAt(i, "invalid character entity &%s", rest[:min(len(rest), 8)])
}

var predefined = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// digit returns the value of the hexadecimal digit c, or 16.
func digit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// skipSpace returns the position of the first byte from i on that is not
// XML whitespace.
func (s *scanner) skipSpace(i int) int {
	for i < len(s.src) {
		switch s.src[i] {
		case ' ', '\n', '\t', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// name reads the name at src[i] and returns it as written and the position
// after it; an empty name is for the caller to report. A name ends at the
// first ASCII byte no name holds, and must then be one by XML's Name
// production.
func (s *scanner) name(i int) (string, int, error) {
	j, high := i, byte(0)
	for ; j < len(s.src); j++ {
		c := s.src[j]
		if nameByte[c] == 0 {
			break
		}
		high |= c
	}
	if j == len(s.src) {
		return "", j, s.eof()
	}
	n := s.src[i:j]
	if n == "" {
		return "", j, nil
	}
	if high < utf8.RuneSelf && nameByte[n[0]] == nameStartByte || high >= utf8.RuneSelf && validName(n) {
		return n, j, nil
	}
	return "", j, s.errorAt(i, "invalid XML name: %s", n)
}

func validName(n string) bool {
	for k, r := range n {
		if r == utf8.RuneError {
			if _, size := utf8.DecodeRuneInString(n[k:]); size == 1 {
				return false // invalid UTF-8
			}
		}
		if k == 0 && !isNameStart(r) || !isNameChar(r) {
			return false
		}
	}
	return true
}

// qname reads an element or attribute name and returns it as written and
// its local part, which is what the tree keeps: "p:x" has the local part
// "x", and a name with one colon at either end is its own local part. A
// name with two colons is rejected, and so is a local part that cannot
// begin a name, since it would not read back as one.
func (s *scanner) qname(i int, what string) (raw, local string, next int, err error) {
	raw, next, err = s.name(i)
	if err != nil {
		return "", "", next, err
	}
	if raw == "" {
		return "", "", next, s.errorAt(i, "expected %s name", what)
	}
	local = raw
	if c := strings.IndexByte(raw, ':'); c > 0 && c < len(raw)-1 {
		local = raw[c+1:]
	}
	if r, _ := utf8.DecodeRuneInString(local); strings.Count(raw, ":") > 1 || !isNameStart(r) {
		return "", "", next, s.errorAt(i, "invalid %s name %s", what, raw)
	}
	return raw, local, next, nil
}

// startTag reads a start tag or an empty-element tag.
func (s *scanner) startTag() error {
	s.flush()
	raw, local, i, err := s.qname(s.pos+1, "element")
	if err != nil {
		return err
	}
	if len(s.open) == 1 && s.root {
		return s.errorf("second root element <%s>", raw)
	}
	el := &Node{Kind: Element, Name: s.intern(local), Parent: s.top()}
	s.attrs, s.raw = s.attrs[:0], s.raw[:0]
	for {
		i = s.skipSpace(i)
		if i == len(s.src) {
			return s.eof()
		}
		if s.src[i] == '>' {
			i++
			break
		}
		if s.src[i] == '/' {
			if !strings.HasPrefix(s.src[i:], "/>") {
				return s.errorf("expected /> in element")
			}
			i += 2
			raw = "" // no end tag to match
			break
		}
		if i, err = s.attr(el, i); err != nil {
			return err
		}
	}
	el.nattr = uint32(len(s.attrs))
	s.kids = append(s.kids, el)
	s.root = true
	if raw != "" {
		// The attributes lead the children on the stack, and in the sequence
		// close installs.
		s.open = append(s.open, frame{n: el, name: raw, kids: len(s.kids)})
		s.kids = append(s.kids, s.attrs...)
	} else if len(s.attrs) > 0 {
		el.seq = SeqOf(s.attrs)
	}
	s.pos = i
	return nil
}

// attr reads the attribute at src[i] into el's pending attributes and
// returns the position after it. Namespace declarations are read and
// dropped; an attribute whose local name is already there (p:x beside x)
// replaces that one's value.
func (s *scanner) attr(el *Node, i int) (int, error) {
	raw, local, i, err := s.qname(i, "attribute")
	if err != nil {
		return i, err
	}
	if slices.Contains(s.raw, raw) {
		return i, s.errorf("attribute %s repeated in <%s>", raw, el.Name)
	}
	s.raw = append(s.raw, raw)
	if i = s.skipSpace(i); i == len(s.src) {
		return i, s.eof()
	}
	if s.src[i] != '=' {
		return i, s.errorf("attribute name without = in element")
	}
	if i = s.skipSpace(i + 1); i == len(s.src) {
		return i, s.eof()
	}
	q := s.src[i]
	if q != '"' && q != '\'' {
		return i, s.errorf("unquoted or missing attribute value in element")
	}
	end := strings.IndexByte(s.src[i+1:], q)
	if end < 0 {
		return i, s.eof()
	}
	end += i + 1
	s.reserve(end - i - 1)
	mark := len(s.buf)
	if err := s.decode(i+1, end, &attrBytes); err != nil {
		return i, err
	}
	if local == "xmlns" || local != raw && strings.HasPrefix(raw, "xmlns:") {
		s.buf = s.buf[:mark]
		return end + 1, nil
	}
	v := s.cut(mark)
	for _, a := range s.attrs {
		if a.Name == local {
			a.Data = v
			return end + 1, nil
		}
	}
	s.attrs = append(s.attrs, &Node{Kind: Attribute, Name: s.intern(local), Data: v, Parent: el})
	return end + 1, nil
}

// endTag reads an end tag and closes the element it matches.
func (s *scanner) endTag() error {
	s.flush()
	raw, _, i, err := s.qname(s.pos+2, "element")
	if err != nil {
		return err
	}
	if i = s.skipSpace(i); i == len(s.src) {
		return s.eof()
	}
	if s.src[i] != '>' {
		return s.errorf("invalid characters between </%s and >", raw)
	}
	if len(s.open) == 1 {
		return s.errorf("unexpected end element </%s>", raw)
	}
	if open := s.open[len(s.open)-1].name; raw != open {
		return s.errorf("element <%s> closed by </%s>", open, raw)
	}
	s.close()
	s.pos = i + 1
	return nil
}

// close gives the innermost open element the children gathered for it, and
// the uniform bit they earn.
func (s *scanner) close() {
	f := s.open[len(s.open)-1]
	kids := s.kids[f.kids:]
	f.n.seq = SeqOf(kids)
	f.n.uniform = uniformOf(kids[f.n.nattr:])
	s.kids = s.kids[:f.kids]
	s.open = s.open[:len(s.open)-1]
}

// procInst reads a processing instruction. The XML declaration's version
// and encoding are checked (1.0, UTF-8) and the declaration dropped.
func (s *scanner) procInst() error {
	target, i, err := s.name(s.pos + 2)
	if err != nil {
		return err
	}
	if target == "" {
		return s.errorf("expected target name after <?")
	}
	i = s.skipSpace(i)
	end := strings.Index(s.src[i:], "?>")
	if end < 0 {
		return s.eof()
	}
	data := s.src[i : i+end]
	if target == "xml" {
		if v := declParam("version", data); v != "" && v != "1.0" {
			return s.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if e := declParam("encoding", data); e != "" && !strings.EqualFold(e, "utf-8") {
			return s.errorf("unsupported encoding %q; only UTF-8 is supported", e)
		}
	} else if s.opts.KeepProcInsts {
		s.flush()
		s.kids = append(s.kids, &Node{Kind: ProcInst, Name: s.intern(target), Data: s.keep(data), Parent: s.top()})
	}
	s.pos = i + end + 2
	return nil
}

// declParam returns the value of param="..." or param='...' in an XML
// declaration's data, or "". The first occurrence of "param=" followed by
// a quote counts, whatever precedes it; after one that is not, the search
// resumes past the character that followed the "=".
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		q := s[i+k+len(param)]
		i += k + len(param) + 1
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(s[i:], q); j >= 0 {
				return s[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// bang reads what begins with "<!": a comment, a CDATA section or a
// directive such as DOCTYPE, which is skipped.
func (s *scanner) bang() error {
	i := s.pos + 2
	if i == len(s.src) {
		return s.eof()
	}
	switch s.src[i] {
	case '-':
		if i+1 == len(s.src) {
			return s.eof()
		}
		if s.src[i+1] != '-' {
			return s.errorf("invalid sequence <!- not part of <!--")
		}
		i += 2
		end := strings.Index(s.src[i:], "--")
		switch {
		case end < 0 || i+end+2 == len(s.src):
			return s.eof()
		case s.src[i+end+2] != '>':
			return s.errorf(`invalid sequence "--" not allowed in comments`)
		}
		if s.opts.KeepComments {
			s.flush()
			s.kids = append(s.kids, &Node{Kind: Comment, Data: s.keep(s.src[i : i+end]), Parent: s.top()})
		}
		s.pos = i + end + 3
		return nil
	case '[':
		const open = "[CDATA["
		if !strings.HasPrefix(s.src[i:], open) {
			return s.errorf("invalid <![ sequence")
		}
		i += len(open)
		end := strings.Index(s.src[i:], "]]>")
		if end < 0 {
			return s.errorf("unexpected EOF in CDATA section")
		}
		end += i
		s.reserve(end - i)
		mark := len(s.buf)
		if err := s.decode(i, end, &cdataBytes); err != nil {
			return err
		}
		s.pos = end + 3
		return s.addedText(mark)
	}
	end, err := s.directive(i + 1)
	s.pos = end
	return err
}

// directive skips a directive's body from src[i], the byte after the one
// following "<!", and returns the position after its closing ">". Quoted
// ">" do not close it, "<" nests (an internal subset's declarations), and
// comments inside it are skipped whole.
func (s *scanner) directive(i int) (int, error) {
	var quote byte
	depth := 0
	for {
		if i == len(s.src) {
			return i, s.eof()
		}
		c := s.src[i]
		i++
		if quote == 0 && c == '>' && depth == 0 {
			return i, nil
		}
	again:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for k := 0; k < len("!--"); k++ {
				if i == len(s.src) {
					return i, s.eof()
				}
				c = s.src[i]
				i++
				if c != "!--"[k] {
					depth++
					goto again // c is read again as markup of its own
				}
			}
			end := strings.Index(s.src[i:], "-->")
			if end < 0 {
				return len(s.src), s.eof()
			}
			i += end + 3
		}
	}
}
