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

// addItems folds the items inside base into their groups. inBase says
// the key enclosing them lies inside base, so none needs the test.
func (g *groups) addItems(items []Item, inBase bool) {
	for _, it := range items {
		if inBase || g.base.ContainsPoint(it.Coords) {
			g.aggs[it.Coords[g.dim]/g.span-g.first].AddItem(it.Measure)
		}
	}
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
		st.LeavesScanned++
		st.ItemsScanned += len(n.items)
		g.addItems(n.items, inBase)
		n.mu.RUnlock()
		return
	}
	rel := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		c.mu.RLock()
		rel = append(rel, c)
	}
	n.mu.RUnlock()
	for _, c := range rel {
		t.groupNode(c, g, inBase, st)
	}
}
