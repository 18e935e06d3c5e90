package core

import (
	"fmt"
	"math"

	"repro/internal/keys"
)

// TreeStats summarizes a tree store's structure.
type TreeStats struct {
	Items  uint64
	Nodes  int
	Leaves int
	Height int
}

// Stats walks the tree and returns structural statistics. Array stores
// report a single-leaf structure.
func Stats(s Store) TreeStats {
	t, ok := s.(*tree)
	if !ok {
		return TreeStats{Items: s.Count(), Nodes: 1, Leaves: 1, Height: 1}
	}
	t.anchor.RLock()
	r := t.root
	t.anchor.RUnlock()
	st := TreeStats{Items: t.Count()}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		n.mu.RLock()
		defer n.mu.RUnlock()
		st.Nodes++
		if depth > st.Height {
			st.Height = depth
		}
		if n.leaf {
			st.Leaves++
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(r, 1)
	return st
}

// CheckInvariants exhaustively verifies a quiescent store's structural
// invariants; it is used by tests (including after concurrent workloads)
// and returns a descriptive error on the first violation:
//
//   - leaf and directory occupancy within capacity,
//   - every node's key contains every item below it (the invariant
//     queries rely on); for MBR keys additionally strict child-in-parent
//     key enclosure (capped MDS keys may legitimately coarsen child and
//     parent differently, so only item coverage is guaranteed there),
//   - every node's aggregate equals the recomputed aggregate of its
//     subtree,
//   - Hilbert mode: leaf items sorted by index, children ordered by max
//     index, and node max index correct,
//   - the store's count matches the walked item total.
func CheckInvariants(s Store) error {
	t, ok := s.(*tree)
	if !ok {
		return checkFlatStore(s)
	}
	cfg := t.cfg
	t.anchor.RLock()
	r := t.root
	t.anchor.RUnlock()

	var walk func(n *node, depth int) (Aggregate, [][]uint64, error)
	walk = func(n *node, depth int) (Aggregate, [][]uint64, error) {
		n.mu.RLock()
		defer n.mu.RUnlock()
		sub := NewAggregate()
		var pts [][]uint64
		if n.leaf {
			b := &n.blk
			if b.n > cfg.LeafCapacity {
				return sub, nil, fmt.Errorf("leaf at depth %d has %d items > capacity %d", depth, b.n, cfg.LeafCapacity)
			}
			if b.n > b.stride || b.stride > cfg.LeafCapacity || len(b.cols) != b.dims*b.stride || len(b.meas) != b.stride || b.dims != cfg.Schema.NumDims() {
				return sub, nil, fmt.Errorf("leaf at depth %d: block of %d items, stride %d, %d ordinals, %d measures, %d dims",
					depth, b.n, b.stride, len(b.cols), len(b.meas), b.dims)
			}
			for i, it := range b.items() {
				if t.hilbertMode() {
					if len(n.hilberts) != b.n {
						return sub, nil, fmt.Errorf("leaf hilberts length %d != items %d", len(n.hilberts), b.n)
					}
					if i > 0 && n.hilberts[i].Less(n.hilberts[i-1]) {
						return sub, nil, fmt.Errorf("leaf items out of hilbert order at %d", i)
					}
					if got := t.hilbertOf(it.Coords); got.Compare(n.hilberts[i]) != 0 {
						return sub, nil, fmt.Errorf("stored hilbert index stale at %d", i)
					}
				}
				sub.AddItem(it.Measure)
				pts = append(pts, it.Coords)
			}
			if t.hilbertMode() && len(n.hilberts) > 0 && n.maxH.Compare(n.hilberts[len(n.hilberts)-1]) != 0 {
				return sub, nil, fmt.Errorf("leaf maxH mismatch")
			}
		} else {
			if len(n.children) == 0 || len(n.children) > cfg.DirCapacity {
				return sub, nil, fmt.Errorf("dir at depth %d has %d children (capacity %d)", depth, len(n.children), cfg.DirCapacity)
			}
			for i, c := range n.children {
				ca, cpts, err := walk(c, depth+1)
				if err != nil {
					return sub, nil, err
				}
				c.mu.RLock()
				if cfg.Keys == keys.MBR && !c.key.CoveredByKey(n.key) {
					c.mu.RUnlock()
					return sub, nil, fmt.Errorf("child key %v not covered by parent key %v", c.key, n.key)
				}
				if t.hilbertMode() {
					if i > 0 {
						prev := n.children[i-1]
						prev.mu.RLock()
						bad := c.maxH.Less(prev.maxH)
						prev.mu.RUnlock()
						if bad {
							c.mu.RUnlock()
							return sub, nil, fmt.Errorf("children maxH out of order at %d", i)
						}
					}
					if n.maxH.Less(c.maxH) {
						c.mu.RUnlock()
						return sub, nil, fmt.Errorf("node maxH below child maxH")
					}
				}
				c.mu.RUnlock()
				sub.Merge(ca)
				pts = append(pts, cpts...)
			}
		}
		// The invariant queries rely on: the node's key contains every
		// item anywhere below it.
		for _, p := range pts {
			if !n.key.ContainsPoint(p) {
				return sub, nil, fmt.Errorf("key %v at depth %d misses item %v", n.key, depth, p)
			}
		}
		if err := aggEqual(n.agg, sub); err != nil {
			return sub, nil, fmt.Errorf("node at depth %d: %w", depth, err)
		}
		return sub, pts, nil
	}
	total, _, err := walk(r, 1)
	if err != nil {
		return err
	}
	if total.Count != t.Count() {
		return fmt.Errorf("walked %d items, Count() = %d", total.Count, t.Count())
	}
	return nil
}

// checkFlatStore verifies the array store's key and aggregate.
func checkFlatStore(s Store) error {
	agg := NewAggregate()
	k := s.Key()
	var n uint64
	var bad error
	s.Items(func(it Item) bool {
		if !k.ContainsPoint(it.Coords) {
			bad = fmt.Errorf("key does not contain item %v", it.Coords)
			return false
		}
		agg.AddItem(it.Measure)
		n++
		return true
	})
	if bad != nil {
		return bad
	}
	if n != s.Count() {
		return fmt.Errorf("walked %d items, Count() = %d", n, s.Count())
	}
	full := s.Query(keys.AllRect(s.Config().Schema))
	return aggEqual(full, agg)
}

// aggEqual compares two aggregates with a relative tolerance on the float
// fields (summation order differs between cached and recomputed values).
func aggEqual(a, b Aggregate) error {
	if a.Count != b.Count {
		return fmt.Errorf("count %d != %d", a.Count, b.Count)
	}
	if a.Count == 0 {
		return nil
	}
	if !floatClose(a.Sum, b.Sum) {
		return fmt.Errorf("sum %g != %g", a.Sum, b.Sum)
	}
	if a.Min != b.Min {
		return fmt.Errorf("min %g != %g", a.Min, b.Min)
	}
	if a.Max != b.Max {
		return fmt.Errorf("max %g != %g", a.Max, b.Max)
	}
	return nil
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
