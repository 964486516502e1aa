package xmltree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTextDoc builds a random document with hostile text and attribute
// content (characters that require escaping).
func randomTextDoc(seed int64, nodes int) *Node {
	rng := rand.New(rand.NewSource(seed))
	hostile := []string{`<`, `>`, `&`, `"`, `'`, "plain", "a&b<c>", `"quoted"`, "tab\tsep"}
	doc := Random(RandomConfig{Nodes: nodes, MaxFanout: 4, Seed: seed})
	doc.DocumentElement().Walk(func(n *Node) bool {
		if n.Kind != Element {
			return true
		}
		if rng.Intn(2) == 0 {
			n.SetAttr("h", hostile[rng.Intn(len(hostile))])
		}
		if n.Children.Len() == 0 && rng.Intn(2) == 0 {
			n.AppendChild(NewText(hostile[rng.Intn(len(hostile))]))
		}
		return true
	})
	return doc
}

type roundTripSpec struct {
	Seed  int64
	Nodes int
}

func (roundTripSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(roundTripSpec{Seed: r.Int63(), Nodes: 2 + r.Intn(60)})
}

// TestQuickSerializeParseRoundTrip: Serialize ∘ Parse is the identity on
// the tree structure and content, including characters needing escapes.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(spec roundTripSpec) bool {
		doc := randomTextDoc(spec.Seed, spec.Nodes)
		out := Serialize(doc)
		doc2, err := ParseString(out)
		if err != nil {
			t.Logf("parse back failed: %v\n%s", err, out)
			return false
		}
		return equalTrees(doc.DocumentElement(), doc2.DocumentElement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func equalTrees(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || a.Children.Len() != b.Children.Len() {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name || a.Attrs[i].Data != b.Attrs[i].Data {
			return false
		}
	}
	for i := 0; i < a.Children.Len(); i++ {
		if !equalTrees(a.Children.At(i), b.Children.At(i)) {
			return false
		}
	}
	return true
}

// TestEscaping pins the escaping rules directly.
func TestEscaping(t *testing.T) {
	doc := NewDocument()
	e := NewElement("e")
	e.SetAttr("a", `x<y>&"z`)
	e.AppendChild(NewText("1<2 & 3>0"))
	doc.AppendChild(e)
	out := Serialize(doc)
	want := `<e a="x&lt;y&gt;&amp;&quot;z">1&lt;2 &amp; 3&gt;0</e>`
	if out != want {
		t.Fatalf("Serialize = %s, want %s", out, want)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.DocumentElement().Attr("a"); v != `x<y>&"z` {
		t.Fatalf("attr round trip = %q", v)
	}
	if got := back.DocumentElement().Texts(); got != "1<2 & 3>0" {
		t.Fatalf("text round trip = %q", got)
	}
}
