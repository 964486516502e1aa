package storage

// Inspection helpers only the tests use.

// Height returns the number of levels in the tree (1 for a lone leaf).
func (t *BTree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return h, nil
		}
		h++
		id = n.kids[0]
	}
}

// PinnedFrames returns the number of frames currently held by at least one
// pin — zero between queries if every Pin was matched by an Unpin.
func (p *Pager) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Height returns the clustered index height.
func (st *NodeStore) Height() (int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.tree.Height()
}
