package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prepost"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// E12StorageAxes measures the disk side of §1's claim ("ascertaining the
// identifiers of data items prior to loading data from the disk can help to
// reduce disk access"): cold page reads per axis operation against the
// clustered identifier index.
//
//   - ruid children: one contiguous key-range scan inside the node's area
//     (interior children) plus in-memory K lookups for boundary children —
//     the identifier arithmetic decides *which* pages to touch before any
//     I/O happens;
//   - ruid parent fetch: the parent identifier is computed in memory, so
//     the fetch is a single point probe;
//   - prepost descendants: one contiguous preorder range scan (the
//     interval schemes' strength);
//   - full scan: the baseline without identifier arithmetic.
func E12StorageAxes() *Table {
	t := &Table{
		ID:    "E12",
		Title: "Cold page reads per stored-axis operation",
		Note:  "extension of §1/§5: disk access avoided by computing identifiers first",
		Header: []string{
			"document", "operation", "avg result size", "cold reads/op",
		},
	}
	for _, dn := range []string{"xmark-4", "recursive-2x10"} {
		var doc *xmltree.Node
		for _, s := range Suite() {
			if s.Name == dn {
				doc = s.Make()
			}
		}
		root := doc.DocumentElement()
		rn := BuildRUID(doc)
		pn, err := prepost.Build(doc)
		if err != nil {
			panic(err)
		}

		stR := storage.NewNodeStore(4)
		if err := stR.Load(root, rn, false); err != nil {
			panic(err)
		}
		stP := storage.NewNodeStore(4)
		if err := stP.Load(root, pn, false); err != nil {
			panic(err)
		}

		// Sample of interior nodes with children.
		var sample []*xmltree.Node
		root.Walk(func(x *xmltree.Node) bool {
			if x.Children.Len() > 0 && len(sample) < 32 {
				sample = append(sample, x)
			}
			return true
		})

		measure := func(op string, avgSize float64, run func(x *xmltree.Node) int) {
			stR.DropCache()
			stR.ResetStats()
			stP.DropCache()
			stP.ResetStats()
			total := 0
			for _, x := range sample {
				// Every operation starts cold: the metric is the I/O one
				// isolated axis evaluation costs.
				stR.DropCache()
				stP.DropCache()
				total += run(x)
			}
			reads := stR.Stats().Reads + stP.Stats().Reads
			if avgSize < 0 {
				avgSize = float64(total) / float64(len(sample))
			}
			t.AddRow(dn, op, fmt.Sprintf("%.1f", avgSize),
				fmt.Sprintf("%.1f", float64(reads)/float64(len(sample))))
		}

		// ruid children: contiguous range scan within the area plus
		// in-memory boundary resolution; rows of boundary children are
		// fetched individually.
		measure("ruid children (range scan)", -1, func(x *xmltree.Node) int {
			id, _ := rn.RUID(x)
			count := 0
			for _, c := range rn.Children(id) {
				cid := c.(core.ID)
				if _, ok, err := stR.Get(cid); err != nil {
					panic(err)
				} else if ok {
					count++
				}
			}
			return count
		})

		// ruid parent: compute in memory, one point probe.
		measure("ruid parent (point probe)", 1, func(x *xmltree.Node) int {
			id, _ := rn.RUID(x)
			p, ok, err := rn.RParent(id)
			if err != nil || !ok {
				return 0
			}
			if _, ok, err := stR.Get(p); err != nil {
				panic(err)
			} else if !ok {
				panic("parent row missing")
			}
			return 1
		})

		// prepost descendants: one contiguous preorder range scan.
		measure("prepost descendants (range scan)", -1, func(x *xmltree.Node) int {
			id, _ := pn.IDOf(x)
			lo, hi := pn.DescendantRange(id)
			count := 0
			loKey := prepost.ID{Pre: lo + 1}.Key()
			hiKey := prepost.ID{Pre: hi}.Key()
			if err := stP.ScanRange(loKey, hiKey, func([]byte, storage.Record) bool {
				count++
				return true
			}); err != nil {
				panic(err)
			}
			return count
		})

		// Baseline: full relation scan per operation.
		measure("full scan", float64(stR.Len()), func(x *xmltree.Node) int {
			count := 0
			if err := stR.ScanRange(nil, nil, func([]byte, storage.Record) bool {
				count++
				return true
			}); err != nil {
				panic(err)
			}
			return count
		})
	}
	return t
}
