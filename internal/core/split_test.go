package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/keys"
	"repro/internal/wire"
)

// refSplitPos is the clone-based least-overlap scan the tree used before
// splits stopped building keys: one cloned suffix key per position and
// one prefix key, extended element by element. It is the reference
// splitPos must agree with.
func refSplitPos(t *tree, elem []*keys.Key) int {
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

// ShapeHash returns the first 8 bytes, in hex, of a SHA-256 over a
// quiescent tree store's structure in depth-first order: every node's
// kind, key, aggregate and max Hilbert index, every directory's fan-out,
// and every leaf's items in order with their Hilbert indices. Two trees
// hash alike only if every split fell at the same position.
func ShapeHash(s Store) string {
	t := s.(*tree)
	w := wire.NewWriter(1 << 16)
	index := func(words []uint64) {
		w.Uvarint(uint64(len(words)))
		for _, x := range words {
			w.Uint64(x)
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		w.Bool(n.leaf)
		n.key.Encode(w)
		n.agg.Encode(w)
		index(n.maxH.Words())
		if !n.leaf {
			w.Uvarint(uint64(len(n.children)))
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		w.Uvarint(uint64(n.blk.n))
		row := make([]uint64, n.blk.dims)
		for i := 0; i < n.blk.n; i++ {
			n.blk.row(i, row)
			for _, c := range row {
				w.Uvarint(c)
			}
			w.Float64(n.blk.meas[i])
			if t.hilbertMode() {
				index(n.hilberts[i].Words())
			}
		}
	}
	walk(t.root)
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:8])
}

// SplitPosMismatches runs splitPos and the clone-based reference on
// every leaf and every directory of a quiescent tree store with at least
// two elements, in their current order, and describes each position on
// which the two differ. One scratch serves every call, as a pooled one
// serves splits of every size, so a scan that reads state left by a
// larger node fails here. It returns the number of leaves and
// directories checked.
func SplitPosMismatches(s Store) (leaves, dirs int, bad []string) {
	t := s.(*tree)
	sc := new(splitScratch)
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if n.blk.n < 2 {
				return
			}
			leaves++
			elem := make([]*keys.Key, n.blk.n)
			row := make([]uint64, n.blk.dims)
			for i := range elem {
				n.blk.row(i, row)
				elem[i] = keys.NewPoint(t.cfg.Keys, t.cfg.MDSCap, row)
			}
			sc.blk, sc.keys = &n.blk, nil
			if got, want := t.splitPos(sc), refSplitPos(t, elem); got != want {
				bad = append(bad, fmt.Sprintf("leaf of %d items: position %d, reference %d", n.blk.n, got, want))
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
		if len(n.children) < 2 {
			return
		}
		dirs++
		elem := make([]*keys.Key, len(n.children))
		for i, c := range n.children {
			elem[i] = c.key.Clone()
		}
		sc.blk, sc.keys = nil, elem
		if got, want := t.splitPos(sc), refSplitPos(t, elem); got != want {
			bad = append(bad, fmt.Sprintf("directory of %d children: position %d, reference %d", len(elem), got, want))
		}
	}
	walk(t.root)
	return leaves, dirs, bad
}

// SplitPosAllocs returns the allocations of one splitPos over the
// fullest leaf of a tree store and over its root directory, with a
// scratch that a first scan has grown.
func SplitPosAllocs(s Store) (leaf, dir float64) {
	t := s.(*tree)
	var full *node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if full == nil || n.blk.n > full.blk.n {
				full = n
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	sc := &splitScratch{blk: &full.blk}
	leaf = testing.AllocsPerRun(20, func() { t.splitPos(sc) })
	sc.blk = nil
	for _, c := range t.root.children {
		sc.keys = append(sc.keys, c.key)
	}
	dir = testing.AllocsPerRun(20, func() { t.splitPos(sc) })
	return leaf, dir
}

// TreeNodes counts a quiescent tree store's leaves and directories.
func TreeNodes(s Store) (leaves, dirs int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			leaves++
			return
		}
		dirs++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.(*tree).root)
	return leaves, dirs
}
