package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hilbert"
	"repro/internal/keys"
)

// node is a tree node. Leaves hold a block of items; directory nodes
// hold children.
// A node's key always describes (at least) everything below it, and its
// agg is always the exact aggregate of the items below it once the tree is
// quiescent; during an insertion the path from the root to the inserter's
// current position already includes the new item (keys and aggregates are
// updated top-down under the node's write lock).
type node struct {
	mu  sync.RWMutex
	key *keys.Key
	agg Aggregate

	leaf     bool
	children []*node // directory nodes
	blk      block   // leaves

	// Hilbert mode only: per-item indices (parallel to blk, kept in
	// ascending order) and the max index of the subtree.
	hilberts []hilbert.Index
	maxH     hilbert.Index
}

// tree is the shared implementation of the PDC tree and Hilbert PDC tree.
type tree struct {
	cfg   Config
	curve *hilbert.Curve // non-nil in Hilbert mode
	count atomic.Uint64

	// anchor guards the root pointer: ops take anchor (writers: Lock,
	// readers: RLock), lock the root node, then release anchor. The root
	// pointer only changes under anchor.Lock.
	anchor sync.RWMutex
	root   *node
}

var _ Store = (*tree)(nil)

// newTree builds an empty tree store.
func newTree(cfg Config) (*tree, error) {
	t := &tree{cfg: cfg}
	if cfg.Store == StoreHilbertPDC {
		c, err := curveFor(cfg.Schema)
		if err != nil {
			return nil, err
		}
		t.curve = c
	}
	t.root = t.newLeaf()
	return t, nil
}

func (t *tree) hilbertMode() bool { return t.curve != nil }

func (t *tree) newLeaf() *node {
	return &node{
		leaf: true,
		key:  keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap),
		agg:  NewAggregate(),
		blk:  block{dims: t.cfg.Schema.NumDims()},
	}
}

func (t *tree) newDir() *node {
	return &node{
		key: keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap),
		agg: NewAggregate(),
	}
}

// full reports whether the node is at capacity (must be split before
// accepting more).
func (t *tree) full(n *node) bool {
	if n.leaf {
		return n.blk.n >= t.cfg.LeafCapacity
	}
	return len(n.children) >= t.cfg.DirCapacity
}

// hilbertInto computes the item's compact Hilbert index over ID-expanded
// coordinates, expanding into exp (one entry per dimension) and writing
// the index into words (Words() long), which the index keeps.
func (t *tree) hilbertInto(coords, exp, words []uint64) hilbert.Index {
	for d, c := range coords {
		exp[d] = t.cfg.Schema.ExpandOrdinal(d, c)
	}
	// Coordinates were validated against the schema; expansion cannot
	// exceed the curve's bit widths.
	return t.curve.IndexInto(exp, words)
}

// hilbertOf is hilbertInto with the index in words of its own.
func (t *tree) hilbertOf(coords []uint64) hilbert.Index {
	var buf [stackDims]uint64
	return t.hilbertInto(coords, rowBuf(buf[:], len(coords)), make([]uint64, t.curve.Words()))
}

// hilbertOrder computes the indices of a batch of items, all in one word
// slab, and the permutation that sorts the batch by them.
func (t *tree) hilbertOrder(items []Item) ([]hilbert.Index, []int) {
	w := t.curve.Words()
	slab := make([]uint64, len(items)*w)
	exp := make([]uint64, t.cfg.Schema.NumDims())
	idx := make([]hilbert.Index, len(items))
	perm := make([]int, len(items))
	for i := range items {
		idx[i] = t.hilbertInto(items[i].Coords, exp, slab[i*w:(i+1)*w:(i+1)*w])
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return idx[perm[a]].Less(idx[perm[b]]) })
	return idx, perm
}

// Config returns the store's configuration.
func (t *tree) Config() Config { return t.cfg }

// Count returns the number of items in the tree.
func (t *tree) Count() uint64 { return t.count.Load() }

// Key returns a snapshot of the root's bounding key.
func (t *tree) Key() *keys.Key {
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	k := r.key.Clone()
	r.mu.RUnlock()
	return k
}

// Insert adds one item, descending with lock coupling and splitting full
// nodes preemptively so at most two node locks are held at a time.
func (t *tree) Insert(it Item) error {
	if err := t.cfg.Schema.ValidatePoint(it.Coords); err != nil {
		return err
	}
	var h hilbert.Index
	if t.hilbertMode() {
		h = t.hilbertOf(it.Coords)
	}
	t.insert(it, h)
	return nil
}

// insert places one validated item whose Hilbert index (zero outside
// Hilbert mode) the caller already computed — the shared descent behind
// Insert and the sorted batches of bulkInsert.
func (t *tree) insert(it Item, h hilbert.Index) {
	// Admission: lock the root via the anchor, splitting a full root
	// first (the only place the tree grows in height).
	t.anchor.Lock()
	cur := t.root
	cur.mu.Lock()
	if t.full(cur) {
		left := cur
		right := t.splitNode(cur)
		newRoot := t.newDir()
		newRoot.children = []*node{left, right}
		newRoot.key.ExtendKey(left.key)
		newRoot.key.ExtendKey(right.key)
		newRoot.agg = left.agg
		newRoot.agg.Merge(right.agg)
		if t.hilbertMode() {
			newRoot.maxH = right.maxH
		}
		t.root = newRoot
		// cur is the old root, now the left child; swap the lock we hold
		// to the new root. No other goroutine can observe newRoot yet
		// because we still hold the anchor.
		newRoot.mu.Lock()
		cur.mu.Unlock()
		cur = newRoot
	}
	t.anchor.Unlock()

	// Descent: cur is write-locked and not full.
	for {
		cur.key.ExtendPoint(it.Coords)
		cur.agg.AddItem(it.Measure)
		if t.hilbertMode() && (cur.maxH.IsZero() || cur.maxH.Less(h)) {
			cur.maxH = h
		}
		if cur.leaf {
			t.leafInsert(cur, it, h)
			cur.mu.Unlock()
			break
		}
		idx := t.chooseChild(cur, it.Coords, h)
		child := cur.children[idx]
		child.mu.Lock()
		if t.full(child) {
			// splitNode mutates child into the left half and returns a
			// fresh right half; insert the right sibling after it.
			right := t.splitNode(child)
			cur.children = append(cur.children, nil)
			copy(cur.children[idx+2:], cur.children[idx+1:])
			cur.children[idx+1] = right
			// Re-route between the halves.
			target := child
			if t.betterHalf(child, right, it.Coords, h) {
				target = right
				right.mu.Lock()
				child.mu.Unlock()
			}
			cur.mu.Unlock()
			cur = target
			continue
		}
		cur.mu.Unlock()
		cur = child
	}
	t.count.Add(1)
}

// leafInsert copies the item into a non-full, write-locked leaf.
func (t *tree) leafInsert(n *node, it Item, h hilbert.Index) {
	if !t.hilbertMode() {
		n.blk.insert(n.blk.n, it.Coords, it.Measure, t.cfg.LeafCapacity)
		return
	}
	// Keep leaf items sorted by Hilbert index (B+-tree style).
	pos := sort.Search(len(n.hilberts), func(i int) bool { return h.Less(n.hilberts[i]) })
	n.blk.insert(pos, it.Coords, it.Measure, t.cfg.LeafCapacity)
	n.hilberts = append(n.hilberts, hilbert.Index{})
	copy(n.hilberts[pos+1:], n.hilberts[pos:])
	n.hilberts[pos] = h
}

// chooseChild picks the insertion subtree of a write-locked directory
// node. Hilbert mode follows the linear order (first child whose max
// Hilbert index is >= h); geometric mode picks the child whose extension
// by the point adds the least overlap with its siblings (§III-C), with
// enlargement and size as tie-breakers.
func (t *tree) chooseChild(n *node, coords []uint64, h hilbert.Index) int {
	if t.hilbertMode() {
		for i, c := range n.children {
			c.mu.RLock()
			last := !c.maxH.Less(h) // maxH >= h
			c.mu.RUnlock()
			if last {
				return i
			}
		}
		return len(n.children) - 1
	}

	// Geometric: score every child by the total sibling overlap its
	// extension would cause. Child keys are read under their own read
	// locks (a descending inserter may be mutating them).
	snaps := make([]*keys.Key, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		snaps[i] = c.key.Clone()
		c.mu.RUnlock()
	}
	best, bestOverlap, bestEnlarge, bestVol := -1, 0.0, 0.0, 0.0
	for i := range n.children {
		ext := snaps[i].Clone()
		ext.ExtendPoint(coords)
		overlap := 0.0
		for j := range n.children {
			if j != i {
				overlap += ext.OverlapVolume(snaps[j])
			}
		}
		enlarge := snaps[i].EnlargementPoint(coords)
		vol := snaps[i].Volume()
		if best == -1 || overlap < bestOverlap ||
			(overlap == bestOverlap && enlarge < bestEnlarge) ||
			(overlap == bestOverlap && enlarge == bestEnlarge && vol < bestVol) {
			best, bestOverlap, bestEnlarge, bestVol = i, overlap, enlarge, vol
		}
	}
	return best
}

// betterHalf reports whether the right half should receive the item after
// a preemptive split of a child.
func (t *tree) betterHalf(left, right *node, coords []uint64, h hilbert.Index) bool {
	if t.hilbertMode() {
		// Follow the linear order: go right iff h > left.maxH.
		return left.maxH.Less(h)
	}
	lo := left.key.EnlargementPoint(coords)
	ro := right.key.EnlargementPoint(coords)
	return ro < lo
}

// Query aggregates every item inside q.
func (t *tree) Query(q keys.Rect) Aggregate {
	agg, _ := t.QueryWithStats(q)
	return agg
}

// QueryWithStats aggregates every item inside q and reports traversal
// statistics.
func (t *tree) QueryWithStats(q keys.Rect) (Aggregate, QueryStats) {
	agg := NewAggregate()
	var st QueryStats
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	t.queryNode(r, q, &agg, &st)
	return agg, st
}

// queryNode aggregates the read-locked node n into agg and releases it.
// Children are read-locked before n is released (lock coupling), so a
// concurrent split cannot move items out from under the traversal.
func (t *tree) queryNode(n *node, q keys.Rect, agg *Aggregate, st *QueryStats) {
	st.NodesVisited++
	if n.key.Empty() || !n.key.OverlapsRect(q) {
		n.mu.RUnlock()
		return
	}
	if n.key.CoveredByRect(q) {
		st.CoveredNodes++
		agg.Merge(n.agg)
		n.mu.RUnlock()
		return
	}
	if n.leaf {
		n.blk.scan(n.key, q, agg, st)
		n.mu.RUnlock()
		return
	}
	// Lock the children before releasing n.
	var buf [defaultDirCapacity]*node
	for _, c := range lockChildren(n, buf[:0]) {
		t.queryNode(c, q, agg, st)
	}
}

// lockChildren read-locks n's children, appends them to buf and releases
// the read-locked n. With buf on the caller's stack and sized to the
// default fan-out, a descent allocates nothing per node.
func lockChildren(n *node, buf []*node) []*node {
	for _, c := range n.children {
		c.mu.RLock()
		buf = append(buf, c)
	}
	n.mu.RUnlock()
	return buf
}

// Items streams the tree's items using the same read-coupled traversal as
// queries. The coordinates it hands out are the caller's to keep.
func (t *tree) Items(fn func(Item) bool) {
	t.eachLeaf(func(n *node) bool {
		// Copy out so the callback runs without the lock held.
		batch := n.blk.items()
		n.mu.RUnlock()
		for _, it := range batch {
			if !fn(it) {
				return false
			}
		}
		return true
	})
}

// eachBlock calls fn with every leaf's block in item order, under the
// leaf's read lock, until fn returns false. fn must not keep the block.
func (t *tree) eachBlock(fn func(b *block) bool) {
	t.eachLeaf(func(n *node) bool {
		ok := fn(&n.blk)
		n.mu.RUnlock()
		return ok
	})
}

// eachLeaf hands every leaf, read-locked, to fn, which releases it and
// returns false to stop; the descent is the read-coupled one of
// queries.
func (t *tree) eachLeaf(fn func(n *node) bool) {
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	leavesNode(r, fn)
}

// leavesNode visits the read-locked node n and releases it. Returns
// false to stop the iteration.
func leavesNode(n *node, fn func(n *node) bool) bool {
	if n.leaf {
		return fn(n)
	}
	var buf [defaultDirCapacity]*node
	stopped := false
	for _, c := range lockChildren(n, buf[:0]) {
		if stopped {
			// Still must release the locks we acquired.
			c.mu.RUnlock()
			continue
		}
		if !leavesNode(c, fn) {
			stopped = true
		}
	}
	return !stopped
}

// MemoryBytes estimates the tree's footprint: items plus directory
// overhead.
func (t *tree) MemoryBytes() uint64 {
	dims := uint64(t.cfg.Schema.NumDims())
	per := dims*8 + 8 // a column entry per dimension + measure
	if t.hilbertMode() {
		per += uint64(t.curve.Words())*8 + 24
	}
	n := t.count.Load()
	// Directory overhead: roughly one node per LeafCapacity items, times
	// a small fan-in factor for internal levels.
	nodes := n/uint64(t.cfg.LeafCapacity) + 1
	return n*per + nodes*(uint64(t.cfg.Schema.NumDims())*32+128)*3/2
}
