package xpath

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics: the parser returns errors, never panics, on
// arbitrary byte soup and on near-miss query strings.
func TestParseNeverPanics(t *testing.T) {
	alphabet := []byte("ab/[]@*.'\"=<>()|,:x1 -")
	f := func(seed int64, lenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(lenRaw)%40
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(buf)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		_, _ = ParseUnion(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRenderReparse: parsing the rendered form of a parsed query
// yields the same rendering (the unabbreviated syntax is a fixed point).
func TestParseRenderReparse(t *testing.T) {
	queries := []string{
		"/a/b[c]", "//x[@y='z']", "a[1][last()]", "a[not(b) and c='2']",
		"preceding-sibling::q[position() < 3]", "a[count(b/c) >= 1]",
		"//*[contains(., 'x') or d]",
	}
	for _, q := range queries {
		p1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		r1 := p1.String()
		p2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", r1, q, err)
		}
		if r2 := p2.String(); r2 != r1 {
			t.Errorf("render not stable: %q -> %q -> %q", q, r1, r2)
		}
	}
}
