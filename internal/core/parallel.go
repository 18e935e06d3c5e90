package core

import (
	"sync"

	"repro/internal/keys"
)

// ParallelQuerier is implemented by stores that can answer one query
// with intra-store parallelism. The worker uses it when a request
// touches few shards but spare query parallelism is available, fanning
// the tree's root children across goroutines instead of shards.
type ParallelQuerier interface {
	// QueryParallel aggregates all items inside the rectangle using up
	// to parallelism goroutines. parallelism <= 1 behaves like Query.
	QueryParallel(q keys.Rect, parallelism int) Aggregate
}

var _ ParallelQuerier = (*tree)(nil)

// QueryParallel fans the root's children across up to parallelism
// goroutines. The children are read-locked before the root is released
// — the same lock coupling queryNode relies on — then partitioned into
// contiguous chunks, each traversed sequentially by one goroutine.
// Partials merge in child order, so the float summation order is
// deterministic for a given tree shape and chunk count.
func (t *tree) QueryParallel(q keys.Rect, parallelism int) Aggregate {
	t.anchor.RLock()
	r := t.root
	r.mu.RLock()
	t.anchor.RUnlock()

	// Root-level checks mirror queryNode's, so the sequential and
	// parallel paths answer identically.
	if r.key.Empty() || !r.key.OverlapsRect(q) {
		r.mu.RUnlock()
		return NewAggregate()
	}
	if r.key.CoveredByRect(q) {
		agg := NewAggregate()
		agg.Merge(r.agg)
		r.mu.RUnlock()
		return agg
	}
	if r.leaf || parallelism <= 1 || len(r.children) < 2 {
		agg := NewAggregate()
		var st QueryStats
		t.queryNode(r, q, &agg, &st)
		return agg
	}

	children := lockChildren(r, make([]*node, 0, len(r.children)))

	par := parallelism
	if par > len(children) {
		par = len(children)
	}
	parts := make([]Aggregate, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		lo := g * len(children) / par
		hi := (g + 1) * len(children) / par
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			agg := NewAggregate()
			var st QueryStats
			for _, c := range children[lo:hi] {
				t.queryNode(c, q, &agg, &st)
			}
			parts[g] = agg
		}(g, lo, hi)
	}
	wg.Wait()

	agg := NewAggregate()
	for i := range parts {
		agg.Merge(parts[i])
	}
	return agg
}
