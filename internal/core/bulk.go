package core

import "repro/internal/hilbert"

// BulkLoad adds many items at once. On an empty Hilbert PDC tree the
// items are sorted by Hilbert index and the tree is packed bottom-up
// without any per-item descent — the fast path behind the paper's
// 400-thousand-items-per-second bulk ingestion figure (§IV-C). In every
// other case it degrades to per-item insertion.
//
// The packed build swaps the root wholesale, so BulkLoad must not race
// with other mutators on the same (empty) store; VOLAP only bulk-loads
// shards at creation and deserialization time, where the worker guarantees
// exclusivity.
func (t *tree) BulkLoad(items []Item) error {
	for i := range items {
		if err := t.cfg.Schema.ValidatePoint(items[i].Coords); err != nil {
			return err
		}
	}
	if len(items) == 0 {
		return nil
	}
	if !t.hilbertMode() {
		return t.bulkInsert(items)
	}

	t.anchor.Lock()
	r := t.root
	r.mu.Lock()
	empty := r.leaf && r.blk.n == 0
	r.mu.Unlock()
	if !empty {
		t.anchor.Unlock()
		return t.bulkInsert(items)
	}

	idx, perm := t.hilbertOrder(items)

	// Pack leaves at ~3/4 fill so subsequent point inserts do not split
	// immediately.
	leafFill := t.cfg.LeafCapacity * 3 / 4
	if leafFill < 2 {
		leafFill = 2
	}
	var level []*node
	for off := 0; off < len(perm); off += leafFill {
		end := off + leafFill
		if end > len(perm) {
			end = len(perm)
		}
		leaf := t.newLeaf()
		leaf.blk = newBlock(t.cfg.Schema.NumDims(), end-off)
		leaf.blk.n = end - off
		leaf.hilberts = make([]hilbert.Index, end-off)
		for i, p := range perm[off:end] {
			leaf.blk.set(i, items[p].Coords, items[p].Measure)
			leaf.hilberts[i] = idx[p]
		}
		t.recomputeLeaf(leaf)
		level = append(level, leaf)
	}

	dirFill := t.cfg.DirCapacity * 3 / 4
	if dirFill < 2 {
		dirFill = 2
	}
	for len(level) > 1 {
		var next []*node
		for off := 0; off < len(level); off += dirFill {
			end := off + dirFill
			if end > len(level) {
				end = len(level)
			}
			dir := t.newDir()
			for _, c := range level[off:end] {
				dir.children = append(dir.children, c)
				dir.key.ExtendKey(c.key)
				dir.agg.Merge(c.agg)
				dir.maxH = c.maxH // children are in ascending order
			}
			next = append(next, dir)
		}
		level = next
	}
	t.root = level[0]
	t.count.Add(uint64(len(items)))
	t.anchor.Unlock()
	return nil
}

// bulkInsert is the fallback per-item path for already-populated
// stores; BulkLoad validated the items. In Hilbert mode the batch is
// pre-sorted by compact Hilbert index first, so consecutive descents
// walk neighboring root-to-leaf paths and leaf insertions cluster
// instead of scattering (§III-E's sorted drain batches).
func (t *tree) bulkInsert(items []Item) error {
	if !t.hilbertMode() {
		for _, it := range items {
			t.insert(it, hilbert.Index{})
		}
		return nil
	}
	idx, perm := t.hilbertOrder(items)
	for _, p := range perm {
		t.insert(items[p], idx[p])
	}
	return nil
}
