package core

// Group-commit support: a batch of structural updates is applied to the
// master numbering one mutation at a time (each confined to its update
// area, exactly as §3.2 prescribes), but published as ONE epoch. The
// publication machinery — CopySet, CloneDelta, the area-index patch — then
// needs the union of the batch's update scopes, which MergeDeltas
// computes.

// MergeDeltas folds the per-mutation deltas of one batch, in application
// order, into a single delta describing the union of their scopes:
//
//   - Dirty is the union of re-enumerated areas, excluding areas a later
//     mutation deleted (their interiors no longer exist on the master);
//   - RowMoved is the union of moved K rows, excluding areas that were
//     re-enumerated or deleted (a dirty rebuild supersedes a row move);
//   - DeletedAreas is the union of vanished areas — updates never create
//     areas outside a full renumber, so an area deleted mid-batch can not
//     reappear and the union is exact;
//   - InsertedCount and Dropped accumulate so the epoch's size arithmetic
//     stays balanced (a node inserted and then deleted inside one batch
//     contributes +1 and −1 and nets out);
//   - Full is sticky: one overflow heal anywhere in the batch forces the
//     full-clone publication path for the whole batch.
//
// Relabels, Inserted, Removed and Parent are left zero: they describe a
// single mutation and have no faithful union — group publication derives
// per-name index edits and guide updates from the per-mutation deltas
// directly (see the document facade), and the merged delta is consumed
// only by CopySet, CloneDelta and the area-index patch, none of which read
// those fields.
//
// A one-element batch returns its sole delta unchanged, so the
// single-mutation publication path is byte-for-byte the pre-batching one.
func MergeDeltas(ds []*Delta) *Delta {
	if len(ds) == 1 {
		return ds[0]
	}
	merged := &Delta{}
	deleted := make(map[int64]bool)
	dirty := make(map[int64]bool)
	moved := make(map[int64]bool)
	for _, d := range ds {
		if d == nil {
			continue
		}
		if d.Full {
			merged.Full = true
		}
		for _, g := range d.DeletedAreas {
			deleted[g] = true
			delete(dirty, g)
			delete(moved, g)
		}
		for _, g := range d.Dirty {
			if !deleted[g] {
				dirty[g] = true
			}
		}
		for _, g := range d.RowMoved {
			if !deleted[g] && !dirty[g] {
				moved[g] = true
			}
		}
		merged.InsertedCount += d.InsertedCount
		merged.Dropped = append(merged.Dropped, d.Dropped...)
	}
	// A row move recorded before the area went dirty is superseded by the
	// dirty rebuild (the rebuilt row carries the final slot).
	for g := range dirty {
		delete(moved, g)
	}
	for g := range dirty {
		merged.Dirty = append(merged.Dirty, g)
	}
	for g := range moved {
		merged.RowMoved = append(merged.RowMoved, g)
	}
	for g := range deleted {
		merged.DeletedAreas = append(merged.DeletedAreas, g)
	}
	return merged
}
