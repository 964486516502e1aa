package xmltree

import (
	"fmt"
	"math/rand"
)

// The generators in this file produce the deterministic synthetic documents
// used throughout the test suite and the benchmark harness. The paper
// evaluated "several sample XML documents" without naming them; these
// generators parameterize the topological properties the paper's analysis
// depends on (depth, fan-out, skew, recursion) and additionally imitate the
// shapes of three classic XML corpora (DBLP, XMark auctions, Shakespeare
// plays). All generators are pure functions of their parameters.

// Balanced returns a document whose root element heads a perfectly balanced
// tree: every internal element has exactly fanout element children and the
// tree is depth edges tall. Element names encode the level ("n0".."nD").
func Balanced(fanout, depth int) *Node {
	if fanout < 1 {
		panic("xmltree: Balanced fanout must be >= 1")
	}
	doc := NewDocument()
	var build func(level int) *Node
	build = func(level int) *Node {
		el := NewElement(fmt.Sprintf("n%d", level))
		if level < depth {
			for i := 0; i < fanout; i++ {
				c := build(level + 1)
				el.AppendChild(c)
			}
		}
		return el
	}
	doc.AppendChild(build(0))
	return doc
}

// Linear returns a document that is a single chain of depth+1 elements —
// the extreme deep-and-narrow case. With the original UID, identifier
// magnitude on such documents is k^depth even though only depth+1 real
// nodes exist.
func Linear(depth int) *Node {
	doc := NewDocument()
	cur := NewElement("n0")
	doc.AppendChild(cur)
	for i := 1; i <= depth; i++ {
		c := NewElement(fmt.Sprintf("n%d", i))
		cur.AppendChild(c)
		cur = c
	}
	return doc
}

// Skewed returns a document with one wide node (wideFanout children under
// the root) while every other internal node has narrowFanout children,
// repeated to the given depth. It is the worst case for the original UID's
// virtual-node padding: the single wide node forces the global k up for the
// whole document.
func Skewed(wideFanout, narrowFanout, depth int) *Node {
	doc := NewDocument()
	root := NewElement("root")
	doc.AppendChild(root)
	for i := 0; i < wideFanout; i++ {
		root.AppendChild(NewElement("wide"))
	}
	// One narrow spine hanging off the first wide child.
	cur := root.Child(0)
	for d := 0; d < depth; d++ {
		for i := 0; i < narrowFanout; i++ {
			cur.AppendChild(NewElement(fmt.Sprintf("deep%d", d)))
		}
		cur = cur.Child(0)
	}
	return doc
}

// RandomConfig parameterizes Random document generation.
type RandomConfig struct {
	Nodes     int     // total element count (>= 1)
	MaxFanout int     // cap on children per node (>= 1)
	DepthBias float64 // 0..1: probability mass pushed toward deep attachment
	Seed      int64
	TextLeaf  bool // attach a text node to childless elements at the end
}

// Random returns a document with exactly cfg.Nodes elements attached at
// uniformly random (or depth-biased) positions, respecting MaxFanout.
// The result is a deterministic function of cfg.
func Random(cfg RandomConfig) *Node {
	if cfg.Nodes < 1 {
		panic("xmltree: Random needs at least one node")
	}
	if cfg.MaxFanout < 1 {
		panic("xmltree: Random MaxFanout must be >= 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	doc := NewDocument()
	root := NewElement("e0")
	doc.AppendChild(root)
	// open holds nodes that can still accept children.
	open := []*Node{root}
	for i := 1; i < cfg.Nodes; i++ {
		var idx int
		if cfg.DepthBias > 0 && rng.Float64() < cfg.DepthBias {
			// favour recently created nodes => deeper trees
			idx = len(open) - 1 - rng.Intn(1+len(open)/4)
			if idx < 0 {
				idx = 0
			}
		} else {
			idx = rng.Intn(len(open))
		}
		p := open[idx]
		c := NewElement(fmt.Sprintf("e%d", rng.Intn(16)))
		p.AppendChild(c)
		open = append(open, c)
		if p.NumChildren() >= cfg.MaxFanout {
			open[idx] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	if cfg.TextLeaf {
		root.Walk(func(d *Node) bool {
			if d.Kind == Element && d.NumChildren() == 0 {
				d.AppendChild(NewText(fmt.Sprintf("t%d", rng.Intn(1000))))
			}
			return true
		})
	}
	return doc
}

// Recursive returns a document with a high degree of recursion: section
// elements nested inside section elements, the case the paper singles out
// ("trees having a high degree of recursion", §5 observation 1).
// Each section has width child sections until depth is exhausted, plus a
// title and a paragraph.
func Recursive(width, depth int) *Node {
	doc := NewDocument()
	var build func(level int) *Node
	build = func(level int) *Node {
		sec := NewElement("section")
		title := NewElement("title")
		title.AppendChild(NewText(fmt.Sprintf("section level %d", level)))
		sec.AppendChild(title)
		sec.AppendChild(NewElement("para"))
		if level < depth {
			for i := 0; i < width; i++ {
				c := build(level + 1)
				sec.AppendChild(c)
			}
		}
		return sec
	}
	book := NewElement("book")
	doc.AppendChild(book)
	c := build(0)
	book.AppendChild(c)
	return doc
}

// DBLP returns a bibliography-shaped document: a flat, very wide root with
// nArticles article records of small uniform fan-out. This is the
// shallow-and-wide extreme (large k, tiny depth).
func DBLP(nArticles int, seed int64) *Node {
	rng := rand.New(rand.NewSource(seed))
	doc := NewDocument()
	dblp := NewElement("dblp")
	doc.AppendChild(dblp)
	for i := 0; i < nArticles; i++ {
		art := NewElement("article")
		art.SetAttr("key", fmt.Sprintf("journals/x/A%d", i))
		for j := 0; j <= rng.Intn(3); j++ {
			a := NewElement("author")
			a.AppendChild(NewText(fmt.Sprintf("Author %d-%d", i, j)))
			art.AppendChild(a)
		}
		t := NewElement("title")
		t.AppendChild(NewText(fmt.Sprintf("On the Numbering of Trees, Part %d", i)))
		art.AppendChild(t)
		y := NewElement("year")
		y.AppendChild(NewText(fmt.Sprintf("%d", 1990+rng.Intn(12))))
		art.AppendChild(y)
		dblp.AppendChild(art)
	}
	return doc
}

// XMark returns an auction-site-shaped document modeled on the XMark
// benchmark: regions with items, people, and open auctions with nested
// description structure. scale controls the item/person counts
// (scale 1 ≈ a few hundred elements).
func XMark(scale int, seed int64) *Node {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	doc := NewDocument()
	site := NewElement("site")
	doc.AppendChild(site)

	regions := NewElement("regions")
	site.AppendChild(regions)
	regionNames := []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	itemID := 0
	for _, rn := range regionNames {
		region := NewElement(rn)
		regions.AppendChild(region)
		for i := 0; i < 4*scale; i++ {
			item := NewElement("item")
			item.SetAttr("id", fmt.Sprintf("item%d", itemID))
			itemID++
			nm := NewElement("name")
			nm.AppendChild(NewText(fmt.Sprintf("item %d", itemID)))
			item.AppendChild(nm)
			desc := NewElement("description")
			par := NewElement("parlist")
			for p := 0; p <= rng.Intn(3); p++ {
				li := NewElement("listitem")
				tx := NewElement("text")
				tx.AppendChild(NewText(fmt.Sprintf("lorem %d", rng.Intn(100))))
				li.AppendChild(tx)
				par.AppendChild(li)
			}
			desc.AppendChild(par)
			item.AppendChild(desc)
			region.AppendChild(item)
		}
	}

	people := NewElement("people")
	site.AppendChild(people)
	for i := 0; i < 10*scale; i++ {
		person := NewElement("person")
		person.SetAttr("id", fmt.Sprintf("person%d", i))
		nm := NewElement("name")
		nm.AppendChild(NewText(fmt.Sprintf("Person %d", i)))
		person.AppendChild(nm)
		em := NewElement("emailaddress")
		em.AppendChild(NewText(fmt.Sprintf("mailto:p%d@example.org", i)))
		person.AppendChild(em)
		if rng.Intn(2) == 0 {
			prof := NewElement("profile")
			in := NewElement("interest")
			in.SetAttr("category", fmt.Sprintf("cat%d", rng.Intn(8)))
			prof.AppendChild(in)
			person.AppendChild(prof)
		}
		people.AppendChild(person)
	}

	auctions := NewElement("open_auctions")
	site.AppendChild(auctions)
	for i := 0; i < 6*scale; i++ {
		au := NewElement("open_auction")
		au.SetAttr("id", fmt.Sprintf("auction%d", i))
		ib := NewElement("initial")
		ib.AppendChild(NewText(fmt.Sprintf("%d.00", 1+rng.Intn(200))))
		au.AppendChild(ib)
		for b := 0; b <= rng.Intn(4); b++ {
			bid := NewElement("bidder")
			inc := NewElement("increase")
			inc.AppendChild(NewText(fmt.Sprintf("%d.50", 1+rng.Intn(20))))
			bid.AppendChild(inc)
			au.AppendChild(bid)
		}
		ref := NewElement("itemref")
		ref.SetAttr("item", fmt.Sprintf("item%d", rng.Intn(itemID)))
		au.AppendChild(ref)
		auctions.AppendChild(au)
	}
	return doc
}

// Shakespeare returns a play-shaped document: acts containing scenes
// containing speeches of a few lines each — moderate depth, moderate
// fan-out, highly regular.
func Shakespeare(acts, scenesPerAct, speechesPerScene int) *Node {
	doc := NewDocument()
	play := NewElement("PLAY")
	doc.AppendChild(play)
	title := NewElement("TITLE")
	title.AppendChild(NewText("The Tragedy of Synthetic Data"))
	play.AppendChild(title)
	for a := 1; a <= acts; a++ {
		act := NewElement("ACT")
		at := NewElement("TITLE")
		at.AppendChild(NewText(fmt.Sprintf("ACT %d", a)))
		act.AppendChild(at)
		for s := 1; s <= scenesPerAct; s++ {
			scene := NewElement("SCENE")
			st := NewElement("TITLE")
			st.AppendChild(NewText(fmt.Sprintf("SCENE %d", s)))
			scene.AppendChild(st)
			for sp := 1; sp <= speechesPerScene; sp++ {
				speech := NewElement("SPEECH")
				speaker := NewElement("SPEAKER")
				speaker.AppendChild(NewText(fmt.Sprintf("PLAYER%d", (sp%5)+1)))
				speech.AppendChild(speaker)
				for l := 0; l < 3; l++ {
					line := NewElement("LINE")
					line.AppendChild(NewText(fmt.Sprintf("line %d of speech %d", l+1, sp)))
					speech.AppendChild(line)
				}
				scene.AppendChild(speech)
			}
			act.AppendChild(scene)
		}
		play.AppendChild(act)
	}
	return doc
}

// PaperFigure1 builds the tree of Fig. 1(a) of the paper, whose real nodes
// carry the original-UID values 1, 2, 3, 8, 9, 23, 26, 27 under a k = 3
// enumeration. The published renumbering after inserting between nodes 2
// and 3 (3→4, 8→11, 9→12, 23→32, 26→35, 27→36) pins down the shape: with
// k = 3 the children of node i occupy (i−1)·3+2 .. 3·i+1, so 8 and 9 are
// the first two children of 3, 23 is the first child of 8, and 26, 27 are
// the first two children of 9. The function returns the document and the
// real nodes keyed by their original-UID value from the figure.
func PaperFigure1() (*Node, map[int64]*Node) {
	doc := NewDocument()
	mk := func(name string) *Node { return NewElement(name) }
	n1 := mk("n1")
	doc.AppendChild(n1)
	n2, n3 := mk("n2"), mk("n3")
	n1.AppendChild(n2)
	n1.AppendChild(n3)
	n8, n9 := mk("n8"), mk("n9")
	n3.AppendChild(n8)
	n3.AppendChild(n9)
	n23 := mk("n23")
	n8.AppendChild(n23)
	n26, n27 := mk("n26"), mk("n27")
	// With k = 3 the children of node 9 occupy 26..28; the figure shows the
	// first two of them.
	n9.AppendChild(n26)
	n9.AppendChild(n27)
	labels := map[int64]*Node{
		1: n1, 2: n2, 3: n3, 8: n8, 9: n9, 23: n23, 26: n26, 27: n27,
	}
	return doc, labels
}

// PaperExampleTree reconstructs a tree consistent with the 2-level ruid
// example of the paper (Fig. 4, Fig. 5 and Example 2). The scraped paper
// text loses the figure itself, but Example 2 fixes the structure: the
// frame fan-out κ is 4, there are six UID-local areas, the area with global
// index 2 has local fan-out 2 and contains a node with local index 7 whose
// parent has local index 3; the area with global index 3 is rooted at the
// node with local index 3 of the root area and has local fan-out 3; and the
// area with global index 10 is rooted at the node with local index 9 of
// area 3. The returned map names each node:
//
//	r                      area 1 root, ruid (1,1,true)
//	├─ a                   area 2 root, (2,2,true)
//	│  ├─ b                (2,2,false)
//	│  └─ c                (2,3,false)
//	│     ├─ d             (2,6,false)
//	│     └─ e             (2,7,false)   — Example 2, case 1
//	├─ p                   area 3 root, (3,3,true)
//	│  ├─ q                (3,2,false)
//	│  ├─ s                (3,3,false)   — Example 2, case 3
//	│  │  ├─ u             (3,8,false)
//	│  │  └─ v             area 10 root, (10,9,true) — Example 2, case 2
//	│  │     ├─ w          (10,2,false)
//	│  │     └─ x          (10,3,false)
//	│  └─ t                (3,4,false)
//	├─ g                   area 4 root, (4,4,true)
//	│  ├─ h                (4,2,false)
//	│  └─ i                (4,3,false)
//	└─ j                   area 5 root, (5,5,true)
//	   └─ m                (5,2,false)
//
// The second return value maps the names above to nodes; the third lists
// the names of the area roots in document order (r, a, p, v, g, j).
func PaperExampleTree() (*Node, map[string]*Node, []string) {
	doc := NewDocument()
	nodes := map[string]*Node{}
	mk := func(name string, parent *Node) *Node {
		n := NewElement(name)
		parent.AppendChild(n)
		nodes[name] = n
		return n
	}
	r := NewElement("r")
	doc.AppendChild(r)
	nodes["r"] = r
	a := mk("a", r)
	mk("b", a)
	c := mk("c", a)
	mk("d", c)
	mk("e", c)
	p := mk("p", r)
	mk("q", p)
	s := mk("s", p)
	mk("u", s)
	v := mk("v", s)
	mk("w", v)
	mk("x", v)
	mk("t", p)
	g := mk("g", r)
	mk("h", g)
	mk("i", g)
	j := mk("j", r)
	mk("m", j)
	return doc, nodes, []string{"r", "a", "p", "v", "g", "j"}
}
