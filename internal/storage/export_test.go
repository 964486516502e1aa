package storage

// Inspection helpers only the tests use.

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

// readPage returns a copy of a page's bytes, faulting it in through a pin
// like every reader of the pool.
func readPage(p *Pager, id int32) ([]byte, error) {
	pp, err := p.Pin(id)
	if err != nil {
		return nil, err
	}
	defer pp.Unpin()
	return append([]byte(nil), pp.Data()...), nil
}
