package xmltree

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNameTables holds isNameStart and isNameChar to the names encoding/xml
// accepts, for every character of the Basic Multilingual Plane and a sample
// above it.
func TestNameTables(t *testing.T) {
	accepts := func(doc string) bool {
		dec := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := dec.Token(); err != nil {
				return err == io.EOF
			}
		}
	}
	probe := func(r rune) {
		if !utf8.ValidRune(r) || r < utf8.RuneSelf && nameByte[r] == 0 {
			return // not read as part of a name
		}
		c := string(r)
		if want := accepts("<" + c + "/>"); isNameStart(r) != want {
			t.Errorf("isNameStart(%U) = %v, encoding/xml says %v", r, !want, want)
		}
		if want := accepts("<a" + c + "/>"); isNameChar(r) != want {
			t.Errorf("isNameChar(%U) = %v, encoding/xml says %v", r, !want, want)
		}
	}
	for r := rune(0); r <= 0xFFFF; r++ {
		probe(r)
	}
	for r := rune(0x10000); r <= utf8.MaxRune; r += 0x3FF {
		probe(r)
	}
}
