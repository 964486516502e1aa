package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// E13BudgetAblation ablates the one tuning knob the paper leaves open: how
// big a UID-local area should be. Small areas mean tiny update scopes and
// tiny local indices but a large frame (more K rows, larger global
// indices); large areas approach the original UID's behaviour inside each
// area. The sweep reports, per budget: partition shape, the magnitude of
// both identifier components, mean relabels per random insertion, and
// rparent latency (which grows only through cache effects — the algorithm
// is O(1) either way).
func E13BudgetAblation() *Table {
	t := &Table{
		ID:    "E13",
		Title: "Area budget ablation (document: xmark-4)",
		Note:  "design-choice ablation: the paper fixes only what areas are, not how large",
		Header: []string{
			"budget", "areas", "κ", "max global", "max local",
			"relabels/insert", "rparent", "children axis",
		},
	}
	var mkDoc func() *xmltree.Node
	for _, s := range Suite() {
		if s.Name == "xmark-4" {
			mkDoc = s.Make
		}
	}
	for _, budget := range []int{4, 8, 16, 32, 64, 128, 512, 1 << 20} {
		doc := mkDoc()
		n, err := core.Build(doc, core.Options{Partition: core.PartitionConfig{
			MaxAreaNodes: budget, AdjustFanout: true,
		}})
		if err != nil {
			panic(err)
		}
		nodes := doc.DocumentElement().Nodes()
		rng := rand.New(rand.NewSource(17))
		sample := make([]core.ID, 256)
		for i := range sample {
			sample[i], _ = n.RUID(nodes[rng.Intn(len(nodes))])
		}
		dParent := timeOp(64, func() {
			for _, id := range sample {
				p, ok, _ := n.RParent(id)
				if ok {
					sinkRUID = p
				}
			}
		})
		dChildren := timeOp(8, func() {
			for _, id := range sample {
				sinkInt += len(n.AppendChildren(nil, id))
			}
		})

		// Update scope: mean relabels over 16 random insertions at random
		// element targets (text nodes cannot take children).
		var targets []*xmltree.Node
		for _, x := range nodes {
			if x.Kind == xmltree.Element {
				targets = append(targets, x)
			}
		}
		total := 0
		for i := 0; i < 16; i++ {
			target := targets[rng.Intn(len(targets))]
			st, _, err := n.InsertChildDelta(target, 0, xmltree.NewElement("abl"))
			if err != nil {
				panic(err)
			}
			total += st.Relabeled
		}

		label := fmt.Sprint(budget)
		if budget == 1<<20 {
			label = "unbounded"
		}
		t.AddRow(
			label, n.AreaCount(), n.Kappa(), n.MaxGlobalIndex(), n.MaxLocalIndex(),
			fmt.Sprintf("%.1f", float64(total)/16),
			formatDuration(dParent/256), formatDuration(dChildren/256),
		)
	}
	return t
}
