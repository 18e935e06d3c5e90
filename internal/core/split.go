package core

import (
	"errors"
	"math"
	"sort"

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
	b := &n.blk
	if !t.hilbertMode() {
		col := b.col(t.widestDim(n.key))
		perm := make([]int, b.n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool { return col[perm[i]] < col[perm[j]] })
		b.permute(perm)
	}
	elem := make([]*keys.Key, b.n)
	row := make([]uint64, b.dims)
	for i := range elem {
		b.row(i, row)
		elem[i] = keys.NewPoint(t.cfg.Keys, t.cfg.MDSCap, row)
	}
	pos := t.splitPos(elem)

	// The left half keeps its columns in place; the right gets a copy.
	right := t.newLeaf()
	right.blk = b.slice(pos, b.n)
	b.n = pos
	if t.hilbertMode() {
		right.hilberts = append([]hilbert.Index(nil), n.hilberts[pos:]...)
		n.hilberts = n.hilberts[:pos:pos]
	}
	t.recomputeLeaf(n)
	t.recomputeLeaf(right)
	return right
}

// recomputeLeaf rebuilds a leaf's key, aggregate and max Hilbert index
// from its items.
func (t *tree) recomputeLeaf(n *node) {
	n.key = keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
	n.agg = NewAggregate()
	row := make([]uint64, n.blk.dims)
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

func (t *tree) snapshotChildren(n *node) []childSnap {
	snaps := make([]childSnap, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		snaps[i] = childSnap{c: c, key: c.key.Clone(), agg: c.agg, maxH: c.maxH}
		c.mu.RUnlock()
	}
	return snaps
}

func (t *tree) splitDir(n *node) *node {
	snaps := t.snapshotChildren(n)
	if !t.hilbertMode() {
		d := t.widestDim(n.key)
		sort.SliceStable(snaps, func(i, j int) bool {
			bi, bj := snaps[i].key.Bounds(d), snaps[j].key.Bounds(d)
			return bi.Lo+bi.Hi < bj.Lo+bj.Hi // order by interval midpoint
		})
	}
	elem := make([]*keys.Key, len(snaps))
	for i, s := range snaps {
		elem[i] = s.key
	}
	pos := t.splitPos(elem)

	right := t.newDir()
	n.children = n.children[:0]
	n.key = keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
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

// splitPos returns the split position in [1, len-1] for elements in their
// final order: SplitLeastOverlap scans every position in linear passes and
// minimizes the overlap volume of the two resulting keys, breaking ties
// toward the most balanced split; SplitMedian returns the middle.
func (t *tree) splitPos(elem []*keys.Key) int {
	n := len(elem)
	if n < 2 {
		return 1
	}
	if t.cfg.SplitPolicy == SplitMedian {
		return n / 2
	}
	suffix := make([]*keys.Key, n+1)
	suffix[n] = keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Clone()
		suffix[i].ExtendKey(elem[i])
	}
	prefix := keys.NewEmpty(t.cfg.Keys, t.cfg.Schema.NumDims(), t.cfg.MDSCap)
	best, bestOv, bestBal := 1, math.Inf(1), n
	for i := 1; i < n; i++ {
		prefix.ExtendKey(elem[i-1])
		ov := prefix.OverlapVolume(suffix[i])
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
func (t *tree) SplitQuery() (Hyperplane, error) {
	if t.Count() < 2 {
		return Hyperplane{}, errSplitTooSmall
	}
	const sampleCap = 4096
	stride := int(t.Count()/sampleCap) + 1
	sample := make([][]uint64, 0, sampleCap)
	i := 0
	t.Items(func(it Item) bool {
		if i%stride == 0 {
			sample = append(sample, it.Coords)
		}
		i++
		return len(sample) < sampleCap
	})
	if len(sample) < 2 {
		return Hyperplane{Dim: -1}, nil
	}
	return planHyperplane(t.Key(), sample, t.cfg), nil
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
// the worker diverts inserts to an insertion queue for the duration.
func (t *tree) Split(h Hyperplane) (Store, Store, error) {
	return splitStore(t, h)
}

// splitStore implements Split for any store by streaming its items.
func splitStore(s Store, h Hyperplane) (Store, Store, error) {
	cfg := s.Config()
	if h.Dim >= cfg.Schema.NumDims() {
		return nil, nil, errors.New("core: hyperplane dimension out of range")
	}
	var left, right []Item
	i := 0
	s.Items(func(it Item) bool {
		toLeft := h.Dim >= 0 && it.Coords[h.Dim] <= h.Value
		if h.Dim < 0 {
			toLeft = i%2 == 0
		}
		if toLeft {
			left = append(left, it)
		} else {
			right = append(right, it)
		}
		i++
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
	if err := ls.BulkLoad(left); err != nil {
		return nil, nil, err
	}
	if err := rs.BulkLoad(right); err != nil {
		return nil, nil, err
	}
	return ls, rs, nil
}
