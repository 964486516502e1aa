package workload

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// PartitionedStore implements the §4 "database file/table selection"
// layout: the node table is decomposed into one table per (element name,
// ruid global index) pair — "the first part is extracted from the text
// value such as the element or attribute names; the second part is the
// common global index of ruid of items". A query that knows an element
// name and the relevant areas opens only the matching small tables instead
// of scanning a monolithic one. E10 measures it against the monolithic
// NodeStore; no served document uses it.
type PartitionedStore struct {
	poolPages int
	tables    map[tableKey]*NodeStore
}

type tableKey struct {
	name   string
	global int64
}

// String renders the composed table name the way §4 describes.
func (k tableKey) String() string { return fmt.Sprintf("%s_g%d", k.name, k.global) }

// NewPartitionedStore creates an empty decomposed store; each table gets
// its own buffer pool of poolPages pages.
func NewPartitionedStore(poolPages int) *PartitionedStore {
	return &PartitionedStore{poolPages: poolPages, tables: make(map[tableKey]*NodeStore)}
}

// Load distributes every numbered element of the snapshot into its table.
func (ps *PartitionedStore) Load(root *xmltree.Node, n *core.Numbering) error {
	var err error
	root.Walk(func(x *xmltree.Node) bool {
		if x.Kind != xmltree.Element {
			return true
		}
		id, ok := n.RUID(x)
		if !ok {
			return true
		}
		k := tableKey{name: x.Name, global: id.Global}
		tbl := ps.tables[k]
		if tbl == nil {
			tbl = NewNodeStore(ps.poolPages)
			ps.tables[k] = tbl
		}
		if e := tbl.Put(id.Key(), x); e != nil {
			err = e
			return false
		}
		return true
	})
	return err
}

// Tables returns the number of tables in the decomposition.
func (ps *PartitionedStore) Tables() int { return len(ps.tables) }

// TableNames returns the composed table names in sorted order.
func (ps *PartitionedStore) TableNames() []string {
	names := make([]string, 0, len(ps.tables))
	for k := range ps.tables {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}

// SelectTables returns the tables a query for the given element name must
// open, restricted to the given areas (nil means all areas). This is the
// candidate-selection step of §4.
func (ps *PartitionedStore) SelectTables(name string, globals []int64) []*NodeStore {
	var out []*NodeStore
	if globals == nil {
		keys := make([]tableKey, 0, len(ps.tables))
		for k := range ps.tables {
			if k.name == name {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].global < keys[j].global })
		for _, k := range keys {
			out = append(out, ps.tables[k])
		}
		return out
	}
	for _, g := range globals {
		if tbl, ok := ps.tables[tableKey{name: name, global: g}]; ok {
			out = append(out, tbl)
		}
	}
	return out
}

// Lookup fetches the row for one identifier, opening only the tables the
// name + global decomposition selects. It returns the record and the I/O
// the lookup cost.
func (ps *PartitionedStore) Lookup(name string, id core.ID) (Record, bool, IOStats, error) {
	tbl, ok := ps.tables[tableKey{name: name, global: id.Global}]
	if !ok {
		return Record{}, false, IOStats{}, nil
	}
	before := tbl.Stats()
	r, found, err := tbl.Get(id.Key())
	return r, found, tbl.Stats().Sub(before), err
}

// ScanName visits every row of every table holding elements with the given
// name (all areas), in (global, local) order per table.
func (ps *PartitionedStore) ScanName(name string, fn func(key []byte, r Record) bool) error {
	for _, tbl := range ps.SelectTables(name, nil) {
		stop := false
		err := tbl.ScanRange(nil, nil, func(k []byte, r Record) bool {
			if !fn(k, r) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// TotalStats sums the I/O counters over all tables.
func (ps *PartitionedStore) TotalStats() IOStats {
	var s IOStats
	for _, tbl := range ps.tables {
		st := tbl.Stats()
		s.Reads += st.Reads
		s.Writes += st.Writes
		s.CacheHits += st.CacheHits
		s.Evictions += st.Evictions
	}
	return s
}

// ResetStats zeroes the I/O counters of every table.
func (ps *PartitionedStore) ResetStats() {
	for _, tbl := range ps.tables {
		tbl.ResetStats()
	}
}

// DropCaches empties every table's buffer pool.
func (ps *PartitionedStore) DropCaches() {
	for _, tbl := range ps.tables {
		tbl.DropCache()
	}
}
