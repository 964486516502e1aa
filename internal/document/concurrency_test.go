package document_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/document"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// newBook builds a small book subtree with a numbered title, so reader
// queries can observe inserted content.
func newBook(i int) *xmltree.Node {
	book := xmltree.NewElement("book")
	title := xmltree.NewElement("title")
	title.AppendChild(xmltree.NewText(fmt.Sprintf("Inserted-%d", i)))
	book.AppendChild(title)
	return book
}

// TestConcurrentReadersWriter races N reader goroutines against a writer
// that inserts and deletes subtrees. Every reader pins a snapshot and
// cross-checks the planner's answer against the pointer-navigation oracle
// evaluated over a clone of that same snapshot's tree — so any torn epoch (a tree
// paired with a numbering or index of a different state) is caught as a
// divergence, and the race detector catches unsynchronized access.
func TestConcurrentReadersWriter(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		writes  = 25
	)
	queries := []string{
		"//book/title",
		"/library/shelf/book",
		"//book//author",
		"//shelf[@floor='1']//title",
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				q := queries[(r+i)%len(queries)]
				got, _, err := snap.Query(q)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %q: %v", r, q, err)
					return
				}
				want, err := oracleOnTree(snap.Tree().Clone(), q)
				if err != nil {
					errc <- fmt.Errorf("reader %d oracle: %q: %v", r, q, err)
					return
				}
				gotP := strings.Join(sortedPaths(snap, got), "|")
				if gotP != want {
					errc <- fmt.Errorf("reader %d epoch %d: %q = %s, oracle %s",
						r, snap.Epoch(), q, gotP, want)
					return
				}
			}
		}(r)
	}

	// The serial oracle mirrors every write on a plain tree with no
	// numbering at all; at the end the facade must agree with it exactly.
	mirror, err := xmltree.ParseString(librarySrc)
	if err != nil {
		t.Fatal(err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writes; i++ {
			shelf := fmt.Sprintf("//shelf[@floor='%d']", i%2+1)
			if _, err := d.Insert(shelf, 0, newBook(i)); err != nil {
				errc <- fmt.Errorf("writer insert %d: %v", i, err)
				return
			}
			mirrorInsert(mirror, i%2, 0, newBook(i))
			if i%3 == 2 {
				// Every third round, delete the book just inserted.
				if _, err := d.Delete(shelf, 0); err != nil {
					errc <- fmt.Errorf("writer delete %d: %v", i, err)
					return
				}
				mirrorDelete(mirror, i%2, 0)
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Final state equals the serially-maintained mirror.
	final := d.Snapshot()
	for _, q := range queries {
		got, _, err := final.Query(q)
		if err != nil {
			t.Fatalf("final %q: %v", q, err)
		}
		want, err := oracleOnTree(mirror, q)
		if err != nil {
			t.Fatalf("final oracle %q: %v", q, err)
		}
		if gotP := strings.Join(sortedPaths(final, got), "|"); gotP != want {
			t.Errorf("final %q = %s, serial oracle %s", q, gotP, want)
		}
	}
	if e := final.Epoch(); e < writes {
		t.Errorf("final epoch %d, want at least %d", e, writes)
	}
}

// TestConcurrentWriters races several writer goroutines; writes serialize
// internally, so every insert must land and the epoch counter must count
// every publication exactly once.
func TestConcurrentWriters(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := d.Query("//book")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		each    = 8
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := d.Insert("//shelf", 0, newBook(w*100+i)); err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	books, _, err := d.Query("//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(books) != len(base)+writers*each {
		t.Errorf("%d books, want %d", len(books), len(base)+writers*each)
	}
	if e := d.Snapshot().Epoch(); e != uint64(1+writers*each) {
		t.Errorf("epoch %d, want %d", e, 1+writers*each)
	}
}

// TestConcurrentMultiEpochPinning extends the reader/writer race to
// interleaved multi-epoch pinning: each reader holds a ring of pinned
// snapshots spanning several epochs, recording the serialized tree and a
// query answer at pin time, and re-validates every pinned epoch on every
// iteration while the writer keeps publishing. With structural sharing
// between epochs this is the test that catches any write-side mutation
// leaking into an already-published epoch (and, under -race, any
// unsynchronized access through shared subtrees).
func TestConcurrentMultiEpochPinning(t *testing.T) {
	d, err := document.OpenString(librarySrc, document.Options{
		Partition: coreSmallPartition(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		writes  = 30
		pinned  = 5 // epochs held live per reader, spanning many writes
	)
	queries := []string{"//book/title", "//book//author", "/library/shelf/book"}

	type pin struct {
		snap *document.Snapshot
		xml  string
		ans  map[string]string // query → sorted result paths at pin time
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var ring []pin
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				p := pin{snap: snap, xml: xmltree.Serialize(snap.Tree()), ans: map[string]string{}}
				for _, q := range queries {
					res, _, err := snap.Query(q)
					if err != nil {
						errc <- fmt.Errorf("reader %d pin epoch %d: %q: %v", r, snap.Epoch(), q, err)
						return
					}
					p.ans[q] = strings.Join(sortedPaths(snap, res), "|")
				}
				ring = append(ring, p)
				if len(ring) > pinned {
					ring = ring[1:]
				}
				// Every pinned epoch — up to `pinned` epochs old, sharing
				// subtrees with newer ones — must still serialize and answer
				// exactly as it did when pinned.
				for _, old := range ring {
					if got := xmltree.Serialize(old.snap.Tree()); got != old.xml {
						errc <- fmt.Errorf("reader %d: epoch %d tree mutated after publication",
							r, old.snap.Epoch())
						return
					}
					for _, q := range queries {
						res, _, err := old.snap.Query(q)
						if err != nil {
							errc <- fmt.Errorf("reader %d revalidate epoch %d: %q: %v",
								r, old.snap.Epoch(), q, err)
							return
						}
						if got := strings.Join(sortedPaths(old.snap, res), "|"); got != old.ans[q] {
							errc <- fmt.Errorf("reader %d: epoch %d answer drifted for %q:\npinned %s\nnow    %s",
								r, old.snap.Epoch(), q, old.ans[q], got)
							return
						}
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writes; i++ {
			shelf := fmt.Sprintf("//shelf[@floor='%d']", i%2+1)
			if _, err := d.Insert(shelf, 0, newBook(i)); err != nil {
				errc <- fmt.Errorf("writer insert %d: %v", i, err)
				return
			}
			if i%4 == 3 {
				if _, err := d.Delete(shelf, 0); err != nil {
					errc <- fmt.Errorf("writer delete %d: %v", i, err)
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// oracleOnTree evaluates q with pointer navigation over a tree whose Parent
// pointers hold (a parsed tree, or a Clone of a published one) and returns
// the joined sorted result paths.
func oracleOnTree(tree *xmltree.Node, q string) (string, error) {
	res, err := xpath.NewEngine(tree, xpath.PointerNavigator{}).Query(q)
	if err != nil {
		return "", err
	}
	paths := make([]string, len(res))
	for i, n := range res {
		paths[i] = n.Path()
	}
	sort.Strings(paths)
	return strings.Join(paths, "|"), nil
}

// mirrorInsert applies the writer's insert to the serial mirror: attach
// child as the pos-th child of the shelfIdx-th shelf.
func mirrorInsert(mirror *xmltree.Node, shelfIdx, pos int, child *xmltree.Node) {
	mirrorShelf(mirror, shelfIdx).InsertChildAt(pos, child)
}

// mirrorDelete applies the writer's delete to the serial mirror.
func mirrorDelete(mirror *xmltree.Node, shelfIdx, pos int) {
	mirrorShelf(mirror, shelfIdx).RemoveChild(pos)
}

func mirrorShelf(mirror *xmltree.Node, shelfIdx int) *xmltree.Node {
	i := 0
	var found *xmltree.Node
	mirror.Walk(func(n *xmltree.Node) bool {
		if found == nil && n.Kind == xmltree.Element && n.Name == "shelf" {
			if i == shelfIdx {
				found = n
			}
			i++
		}
		return found == nil
	})
	return found
}
