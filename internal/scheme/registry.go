package scheme

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xmltree"
)

// Capabilities declares, per registered scheme, which optional contracts the
// implementation honors. The scheme bake-off and the conformance suites
// consult these flags instead of sniffing interfaces, so a scheme that
// *could* satisfy an interface syntactically but not semantically (prepost
// implements Parent through a stored rank, not arithmetic) is classified by
// what it genuinely computes from identifiers.
type Capabilities struct {
	// Axes: the scheme implements AxisScheme — every positional XPath axis
	// is generated from an identifier (plus small in-memory tables).
	Axes bool
	// Update: the scheme implements Updatable — structural inserts and
	// deletes keep the numbering in sync and report their relabel scope.
	Update bool
	// ComputedParent: Parent is identifier arithmetic alone (the UID-family
	// property of the paper). Schemes without it carry a stored parent
	// pointer per node, so the bake-off must not credit them with the
	// parent-climbing join kernels: it runs the comparison-only merge
	// kernels, which need nothing beyond CompareOrder and IsAncestor.
	ComputedParent bool
	// Depth: identifiers carry their node's depth (the Depther interface).
	Depth bool
	// OrderedKeys: bytes.Compare on ID.Key() agrees with CompareOrder for
	// every pair of identifiers of one snapshot, i.e. the index key order
	// IS document order. ruid and uid do not declare it: their keys sort
	// by containing area (resp. numeric UID), which groups B-tree range
	// scans per area but interleaves across areas. Schemes that declare it
	// are held to it by the schemetest key-order contract test.
	OrderedKeys bool
}

// Registration ties a scheme name to its constructor and capability flags.
type Registration struct {
	Name string
	Caps Capabilities
	// Build numbers one document snapshot (a Document node or an element
	// treated as root).
	Build func(doc *xmltree.Node) (Scheme, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a scheme to the process-wide registry. Implementation
// packages call it from init, so importing a scheme package is what makes
// its name resolvable. Register panics on an empty name, a nil constructor,
// or a duplicate registration — all programmer errors.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("scheme: Register needs a name and a Build constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("scheme: %q registered twice", r.Name))
	}
	registry[r.Name] = r
}

// Lookup resolves a registered scheme by name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CapsOf returns the declared capabilities of a scheme instance, resolved
// through the registry by Name; an unregistered scheme declares none.
func CapsOf(s Scheme) Capabilities {
	r, _ := Lookup(s.Name())
	return r.Caps
}

// Depther is implemented by schemes whose identifiers expose their node's
// depth (root element at depth 0).
type Depther interface {
	Scheme
	Depth(id ID) (int, bool)
}

// LabelSizer is implemented by schemes that can report the total resident
// size of their labels in bytes — the bytes/node column of the bake-off.
// What counts as "the label" is the scheme's own structural identifier (the
// ruid triple, the pre/post pair, the nested-interval rational, the compact
// ancestry word); auxiliary lookup tables are excluded.
type LabelSizer interface {
	LabelBytes() int
}

// LabelBytes reports the total label footprint of a scheme over n numbered
// nodes: the scheme's own accounting when it implements LabelSizer, and the
// Key-encoding footprint as a generic fallback.
func LabelBytes(s Scheme, nodes []ID) int {
	if ls, ok := s.(LabelSizer); ok {
		return ls.LabelBytes()
	}
	total := 0
	for _, id := range nodes {
		total += len(id.Key())
	}
	return total
}

// IDsByName walks the subtree rooted at root and returns, for each element
// name, the identifiers s assigns the elements of that name, in document
// order: the boxed per-name lists the join kernels of this package take
// under any scheme.
func IDsByName(root *xmltree.Node, s Scheme) map[string][]ID {
	lists := make(map[string][]ID)
	root.Walk(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Element {
			if id, ok := s.IDOf(x); ok {
				lists[x.Name] = append(lists[x.Name], id)
			}
		}
		return true
	})
	return lists
}

// NodeKey returns the key function workload.NodeStore.Load takes for s: the
// Key of the identifier s assigns a node, and false for a node s does not
// number.
func NodeKey(s Scheme) func(*xmltree.Node) ([]byte, bool) {
	return func(x *xmltree.Node) ([]byte, bool) {
		id, ok := s.IDOf(x)
		if !ok {
			return nil, false
		}
		return id.Key(), true
	}
}
