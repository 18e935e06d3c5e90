package core

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/hilbert"
	"repro/internal/keys"
)

// splitNode splits the full, write-locked node n in place: n keeps the
// lower part and a fresh right sibling (not yet linked anywhere, and not
// locked) receives the rest. The caller links the sibling into the parent
// while still holding the parent's lock. Keys and aggregates of both
// halves are recomputed exactly.
//
// The split position is chosen by the configured policy; the paper's
// Hilbert PDC tree scans every position and takes the one with the least
// overlap between the two resulting keys (§III-D). In geometric mode the
// elements are first ordered along the dimension with the widest relative
// spread, which generalizes the same position scan to the PDC tree.
func (t *tree) splitNode(n *node) *node {
	if n.leaf {
		return t.splitLeaf(n)
	}
	return t.splitDir(n)
}

func (t *tree) splitLeaf(n *node) *node {
	sc := splitPool.Get().(*splitScratch)
	defer putSplitScratch(sc)
	b := &n.blk
	if !t.hilbertMode() {
		col := b.col(t.widestDim(n.key))
		perm := sc.perm[:0]
		for i := 0; i < b.n; i++ {
			perm = append(perm, i)
		}
		slices.SortStableFunc(perm, func(i, j int) int { return cmp.Compare(col[i], col[j]) })
		sc.perm = perm
		sc.words = b.permute(perm, sc.words)
	}
	sc.blk = b
	pos := t.splitPos(sc)

	// The left half keeps its columns in place; the right gets a copy
	// with room for a full leaf.
	right := t.newLeaf()
	right.blk = b.slice(pos, b.n, t.cfg.LeafCapacity)
	b.n = pos
	if t.hilbertMode() {
		right.hilberts = append(make([]hilbert.Index, 0, t.cfg.LeafCapacity), n.hilberts[pos:]...)
		clear(n.hilberts[pos:])
		n.hilberts = n.hilberts[:pos]
	}
	t.recomputeLeaf(n)
	t.recomputeLeaf(right)
	return right
}

// recomputeLeaf rebuilds a leaf's key (in place), aggregate and max
// Hilbert index from its items.
func (t *tree) recomputeLeaf(n *node) {
	n.key.Reset()
	n.agg = NewAggregate()
	var buf [stackDims]uint64
	row := rowBuf(buf[:], n.blk.dims)
	for i := 0; i < n.blk.n; i++ {
		n.blk.row(i, row)
		n.key.ExtendPoint(row)
		n.agg.AddItem(n.blk.meas[i])
	}
	if t.hilbertMode() && len(n.hilberts) > 0 {
		n.maxH = n.hilberts[len(n.hilberts)-1]
	}
}

// childSnap is a consistent snapshot of a child node's summary, taken
// under the child's read lock.
type childSnap struct {
	c    *node
	key  *keys.Key
	agg  Aggregate
	maxH hilbert.Index
}

// snapshotChildren fills sc.snaps and sc.keys with n's children, their
// keys copied into sc's reused keys.
func (t *tree) snapshotChildren(n *node, sc *splitScratch) {
	for i, c := range n.children {
		if i == len(sc.keyPool) {
			sc.keyPool = append(sc.keyPool, keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap))
		}
		k := sc.keyPool[i]
		c.mu.RLock()
		k.CopyFrom(c.key)
		sc.snaps = append(sc.snaps, childSnap{c: c, key: k, agg: c.agg, maxH: c.maxH})
		c.mu.RUnlock()
	}
}

func (t *tree) splitDir(n *node) *node {
	sc := splitPool.Get().(*splitScratch)
	defer putSplitScratch(sc)
	t.snapshotChildren(n, sc)
	snaps := sc.snaps
	if !t.hilbertMode() {
		d := t.widestDim(n.key)
		slices.SortStableFunc(snaps, func(a, b childSnap) int {
			ba, bb := a.key.Bounds(d), b.key.Bounds(d)
			return cmp.Compare(ba.Lo+ba.Hi, bb.Lo+bb.Hi) // order by interval midpoint
		})
	}
	for _, s := range snaps {
		sc.keys = append(sc.keys, s.key)
	}
	pos := t.splitPos(sc)

	right := t.newDir()
	right.children = make([]*node, 0, t.cfg.DirCapacity)
	n.children = n.children[:0]
	n.key.Reset()
	n.agg = NewAggregate()
	n.maxH = hilbert.Index{}
	for i, s := range snaps {
		dst := n
		if i >= pos {
			dst = right
		}
		dst.children = append(dst.children, s.c)
		dst.key.ExtendKey(s.key)
		dst.agg.Merge(s.agg)
		if t.hilbertMode() && (dst.maxH.IsZero() || dst.maxH.Less(s.maxH)) {
			dst.maxH = s.maxH
		}
	}
	return right
}

// widestDim returns the dimension with the largest relative bound span of
// the key.
func (t *tree) widestDim(k *keys.Key) int {
	best, bestSpan := 0, -1.0
	for d := 0; d < k.Dims(); d++ {
		b := k.Bounds(d)
		span := float64(b.Len()) / float64(t.cfg.Schema.Dim(d).LeafCount())
		if span > bestSpan {
			best, bestSpan = d, span
		}
	}
	return best
}

// splitScratch is the working storage of one split. Splits run at once
// in different subtrees under lock coupling, so each takes its own from
// splitPool and returns it when done; once a scratch has grown to a
// node's size, a split allocates only the new sibling.
type splitScratch struct {
	// The elements to split, in their final order: the items of blk, or
	// the directory entries' keys.
	blk  *block
	keys []*keys.Key

	// sets holds the suffix keys' interval sets, dimension d of the key
	// of elements [i, n) at i*dims+d, then the two prefix buffers; each
	// set lives in its own slot of arena.
	sets  [][]hierarchy.Interval
	arena []hierarchy.Interval
	slot  int                   // intervals per arena slot
	point [1]hierarchy.Interval // an item's set in one dimension

	perm    []int       // a geometric leaf's item order
	words   []uint64    // block.permute's buffer
	snaps   []childSnap // a directory's children
	keyPool []*keys.Key // reused copies of the children's keys
}

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

// putSplitScratch drops sc's references to the tree and pools it.
func putSplitScratch(sc *splitScratch) {
	clear(sc.snaps)
	clear(sc.keys)
	sc.blk, sc.keys, sc.snaps = nil, sc.keys[:0], sc.snaps[:0]
	splitPool.Put(sc)
}

// elems returns the number of elements to split.
func (sc *splitScratch) elems() int {
	if sc.blk != nil {
		return sc.blk.n
	}
	return len(sc.keys)
}

// elem returns element i's interval set in dimension d (aliased, valid
// until the next call).
func (sc *splitScratch) elem(i, d int) []hierarchy.Interval {
	if sc.blk == nil {
		return sc.keys[i].Set(d)
	}
	c := sc.blk.cols[d*sc.blk.stride+i]
	sc.point[0] = hierarchy.Interval{Lo: c, Hi: c}
	return sc.point[:]
}

// reserve sizes the arena for count sets of up to slot intervals each.
func (sc *splitScratch) reserve(count, slot int) {
	if len(sc.sets) < count {
		sc.sets = make([][]hierarchy.Interval, count)
	}
	if len(sc.arena) < count*slot {
		sc.arena = make([]hierarchy.Interval, count*slot)
	}
	sc.slot = slot
}

// out returns set k's empty slot, with room for slot intervals and no
// more, so a union written there cannot spill into the next one.
func (sc *splitScratch) out(k int) []hierarchy.Interval {
	return sc.arena[k*sc.slot : k*sc.slot : (k+1)*sc.slot]
}

// splitPos returns the split position in [1, n-1] for sc's n elements:
// SplitLeastOverlap scans every position in linear passes and minimizes
// the overlap volume of the two resulting keys, breaking ties toward the
// most balanced split; SplitMedian returns the middle.
//
// The keys are never built: each is a row of interval sets in sc's
// arena, extended with keys.UnionSets (Key.ExtendKey's step, on an empty
// set a copy) and intersected with keys.IntersectLen in OverlapVolume's
// order with its early exit, so the position is the one the keys would
// give. Suffix sets and the two alternating prefix rows are separate
// slots, so no union reads the slot it writes.
func (t *tree) splitPos(sc *splitScratch) int {
	n := sc.elems()
	if n < 2 {
		return 1
	}
	if t.cfg.SplitPolicy == SplitMedian {
		return n / 2
	}
	dims, cp := t.cfg.Schema.NumDims(), keys.IntervalCap(t.cfg.Keys, t.cfg.MDSCap)
	// A union holds at most both operands' intervals before coarsening.
	sc.reserve((n+3)*dims, 2*cp)
	sets := sc.sets
	for d := 0; d < dims; d++ {
		sets[n*dims+d] = nil
	}
	for i := n - 1; i >= 1; i-- {
		for d := 0; d < dims; d++ {
			k := i*dims + d
			sets[k] = keys.UnionSets(sc.out(k), sets[k+dims], sc.elem(i, d), cp)
		}
	}
	pre, next := (n+1)*dims, (n+2)*dims
	for d := 0; d < dims; d++ {
		sets[pre+d] = nil
	}
	best, bestOv, bestBal := 1, math.Inf(1), n
	for i := 1; i < n; i++ {
		for d := 0; d < dims; d++ {
			sets[next+d] = keys.UnionSets(sc.out(next+d), sets[pre+d], sc.elem(i-1, d), cp)
		}
		pre, next = next, pre
		ov := 1.0
		for d := 0; d < dims; d++ {
			l := keys.IntersectLen(sets[pre+d], sets[i*dims+d])
			if l == 0 {
				ov = 0
				break
			}
			ov *= float64(l)
		}
		bal := i - n/2
		if bal < 0 {
			bal = -bal
		}
		if ov < bestOv || (ov == bestOv && bal < bestBal) {
			best, bestOv, bestBal = i, ov, bal
		}
	}
	return best
}

// SplitQuery plans a hyperplane that partitions the store into halves of
// approximately equal size (§III-E). It samples the store's items, orders
// candidate dimensions by bound spread, and picks a median coordinate that
// leaves both sides non-empty; if no coordinate separates the data it
// falls back to the alternating hyperplane (Dim == -1).
func (t *tree) SplitQuery() (Hyperplane, error) { return splitQuery(t) }

// splitQuery implements SplitQuery for any store: every stride-th item,
// up to 4 096, read from the columns into one flat sample.
func splitQuery(s blockStore) (Hyperplane, error) {
	count := s.Count()
	if count < 2 {
		return Hyperplane{}, errSplitTooSmall
	}
	const sampleCap = 4096
	stride := int(count/sampleCap) + 1
	dims := s.Config().Schema.NumDims()
	size := min(int(count), sampleCap)
	flat := make([]uint64, size*dims)
	sample := make([][]uint64, 0, size)
	i := 0
	s.eachBlock(func(b *block) bool {
		for j := 0; j < b.n && len(sample) < size; j++ {
			if i%stride == 0 {
				row := flat[len(sample)*dims : (len(sample)+1)*dims]
				b.row(j, row)
				sample = append(sample, row)
			}
			i++
		}
		return len(sample) < size
	})
	if len(sample) < 2 {
		return Hyperplane{Dim: -1}, nil
	}
	return planHyperplane(s.Key(), sample, s.Config()), nil
}

// planHyperplane chooses a split hyperplane from a coordinate sample.
func planHyperplane(k *keys.Key, sample [][]uint64, cfg Config) Hyperplane {
	dims := cfg.Schema.NumDims()
	type cand struct {
		d    int
		span float64
	}
	cands := make([]cand, 0, dims)
	for d := 0; d < dims; d++ {
		b := k.Bounds(d)
		cands = append(cands, cand{d, float64(b.Len()) / float64(cfg.Schema.Dim(d).LeafCount())})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].span > cands[j].span })

	vals := make([]uint64, len(sample))
	for _, c := range cands {
		for i, s := range sample {
			vals[i] = s[c.d]
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if vals[0] == vals[len(vals)-1] {
			continue // degenerate in this dimension
		}
		med := vals[(len(vals)-1)/2]
		if med == vals[len(vals)-1] {
			// Everything <= med would swallow the max; step down to the
			// previous distinct value so the right side is non-empty.
			j := sort.Search(len(vals), func(i int) bool { return vals[i] >= med })
			med = vals[j-1]
		}
		return Hyperplane{Dim: c.d, Value: med}
	}
	return Hyperplane{Dim: -1}
}

// Split partitions the store's current contents into two new stores
// separated by the hyperplane (§III-E). The receiver keeps serving reads
// during the pass; items inserted concurrently may be missed, which is why
// the worker keeps inserts in its insertion buffer for the duration.
func (t *tree) Split(h Hyperplane) (Store, Store, error) {
	return splitStore(t, h)
}

// splitStore implements Split for any store by streaming its leaf
// blocks: each item's row goes to the side of the hyperplane it lies on
// (Dim -1 alternates), and each side is bulk-loaded from its rows.
func splitStore(s blockStore, h Hyperplane) (Store, Store, error) {
	cfg := s.Config()
	if h.Dim >= cfg.Schema.NumDims() {
		return nil, nil, errors.New("core: hyperplane dimension out of range")
	}
	var left, right rows
	i := 0
	s.eachBlock(func(b *block) bool {
		for j := 0; j < b.n; j++ {
			toLeft := i%2 == 0
			if h.Dim >= 0 {
				toLeft = b.cols[h.Dim*b.stride+j] <= h.Value
			}
			if toLeft {
				left.add(b, j)
			} else {
				right.add(b, j)
			}
			i++
		}
		return true
	})
	ls, err := NewStore(cfg)
	if err != nil {
		return nil, nil, err
	}
	rs, err := NewStore(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := ls.BulkLoad(left.items(cfg.Schema.NumDims())); err != nil {
		return nil, nil, err
	}
	if err := rs.BulkLoad(right.items(cfg.Schema.NumDims())); err != nil {
		return nil, nil, err
	}
	return ls, rs, nil
}

// rows collects items copied out of blocks: coordinates in one flat
// slice, measures in another.
type rows struct {
	coords []uint64
	meas   []float64
}

// add appends item j of b.
func (r *rows) add(b *block, j int) {
	for d := 0; d < b.dims; d++ {
		r.coords = append(r.coords, b.cols[d*b.stride+j])
	}
	r.meas = append(r.meas, b.meas[j])
}

// items returns the collected items, their coordinates aliasing r.
func (r *rows) items(dims int) []Item {
	out := make([]Item, len(r.meas))
	for i := range out {
		out[i] = Item{Coords: r.coords[i*dims : (i+1)*dims : (i+1)*dims], Measure: r.meas[i]}
	}
	return out
}
