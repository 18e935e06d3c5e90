package core

import (
	"repro/internal/keys"
)

// groups is the dense accumulator of one GroupQuery: aggs[i] is group
// first+i, where group v holds the ordinals [v*span, v*span+span-1] of
// dimension dim.
type groups struct {
	base  keys.Rect
	dim   int
	span  uint64
	first uint64
	aggs  []Aggregate
}

// newGroups sizes the accumulator to the groups that both base and the
// store's key k reach, so a base wider than the data allocates nothing
// for the difference. It returns nil when k misses base.
func newGroups(base keys.Rect, dim int, span uint64, k *keys.Key) *groups {
	if k.Empty() || !k.OverlapsRect(base) {
		return nil
	}
	iv, b := base.Ivs[dim], k.Bounds(dim)
	first := max(iv.Lo, b.Lo) / span
	aggs := make([]Aggregate, min(iv.Hi, b.Hi)/span-first+1)
	for i := range aggs {
		aggs[i] = NewAggregate()
	}
	return &groups{base: base, dim: dim, span: span, first: first, aggs: aggs}
}

// covered credits a cached aggregate to its group when the key it
// summarizes lies inside base (inBase) and within one group: exactly
// when Query(base clipped to that group) would stop at it.
func (g *groups) covered(k *keys.Key, agg Aggregate, inBase bool) bool {
	if !inBase {
		return false
	}
	b := k.Bounds(g.dim)
	v := b.Lo / g.span
	if v != b.Hi/g.span {
		return false
	}
	g.aggs[v-g.first].Merge(agg)
	return true
}

// addBlock folds the block's items inside base into their groups and
// counts the work in st. k bounds the block and overlaps base; inBase
// says k lies inside base, so only the grouped column is read.
func (g *groups) addBlock(b *block, k *keys.Key, inBase bool, st *QueryStats) {
	st.LeavesScanned++
	st.ItemsScanned += b.n
	col := b.col(g.dim)
	if inBase {
		for i, c := range col {
			g.aggs[c/g.span-g.first].AddItem(b.meas[i])
		}
		return
	}
	var buf [stackMaskWords]uint64
	mask := newMask(buf[:], b.n)
	st.ColumnsTested += b.match(k, g.base, mask)
	eachSet(mask, func(i int) { g.aggs[col[i]/g.span-g.first].AddItem(b.meas[i]) })
}

// flush merges every non-empty group into out.
func (g *groups) flush(out map[uint64]Aggregate) {
	for i, a := range g.aggs {
		if a.Count > 0 {
			MergeGroup(out, g.first+uint64(i), a)
		}
	}
}

// GroupQuery is one read-coupled descent (queryNode's locking) that
// credits every group at once. A node inside base and inside one group
// adds its cached aggregate to that group; below a node inside base,
// leaves skip the containment test. Each group sees the same nodes and
// items in the same order as Query over base clipped to the group.
func (t *tree) GroupQuery(base keys.Rect, dim int, span uint64, out map[uint64]Aggregate) QueryStats {
	var st QueryStats
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()
	g := newGroups(base, dim, span, r.key)
	if g == nil {
		st.NodesVisited++
		r.mu.RUnlock()
		return st
	}
	t.groupNode(r, g, false, &st)
	g.flush(out)
	return st
}

// groupNode folds the read-locked node n into g and releases it. inBase
// reports that an ancestor's key lies inside base, so n's does too.
func (t *tree) groupNode(n *node, g *groups, inBase bool, st *QueryStats) {
	st.NodesVisited++
	if n.key.Empty() || (!inBase && !n.key.OverlapsRect(g.base)) {
		n.mu.RUnlock()
		return
	}
	inBase = inBase || n.key.CoveredByRect(g.base)
	if g.covered(n.key, n.agg, inBase) {
		st.CoveredNodes++
		n.mu.RUnlock()
		return
	}
	if n.leaf {
		g.addBlock(&n.blk, n.key, inBase, st)
		n.mu.RUnlock()
		return
	}
	var buf [defaultDirCapacity]*node
	for _, c := range lockChildren(n, buf[:0]) {
		t.groupNode(c, g, inBase, st)
	}
}
