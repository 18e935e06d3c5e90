package image

import (
	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// target is what an insertion extends a subtree's key by: one point
// (RouteInsert) or a whole key (AddShard).
type target struct {
	coords []uint64
	key    *keys.Key
}

// extendedSet returns the dimension-d set of k extended by t, and
// whether it differs from k's own.
func (t target) extendedSet(k *keys.Key, d int, buf []hierarchy.Interval) ([]hierarchy.Interval, bool) {
	if t.key != nil {
		return k.ExtendedSetKey(d, t.key, buf)
	}
	return k.ExtendedSetPoint(d, t.coords[d], buf)
}

// scoreCache holds, for one directory node, the per-dimension factors of
// the least-overlap rule that depend on its children's keys alone: every
// child's covered length in every dimension, its volume, and the length
// every pair of children share in every dimension. Each child slot is
// stamped with the key pointer and keys.Key.Gen it was computed from, so
// a key that changed region, or a slot that now holds another child, is
// recomputed before use. The node's write lock guards the cache; the
// children's keys are read under their read locks.
type scoreCache struct {
	from  []*keys.Key // stamp per slot: the key the slot's factors came from
	gen   []uint64    // stamp per slot: that key's Gen
	lens  []uint64    // [i*dims+d]: covered length of child i in dimension d
	vols  []float64   // [i]: volume of child i
	inter []uint64    // [(i*n+j)*dims+d]: length children i and j share in d
	stale []bool      // scratch: slots recomputed by sync
	row   []uint64    // scratch: one child's extended intersection lengths
	buf   []hierarchy.Interval
}

// sync brings the cache up to date with the children's current keys.
func (sc *scoreCache) sync(children []*inode, dims int) {
	n := len(children)
	if len(sc.from) != n {
		sc.from = make([]*keys.Key, n)
		sc.gen = make([]uint64, n)
		sc.lens = make([]uint64, n*dims)
		sc.vols = make([]float64, n)
		sc.inter = make([]uint64, n*n*dims)
		sc.stale = make([]bool, n)
		sc.row = make([]uint64, n*dims)
	}
	dirty := false
	for i, c := range children {
		k := c.key
		sc.stale[i] = sc.from[i] != k || sc.gen[i] != k.Gen()
		if !sc.stale[i] {
			continue
		}
		dirty = true
		sc.from[i], sc.gen[i] = k, k.Gen()
		for d := 0; d < dims; d++ {
			sc.lens[i*dims+d] = keys.SetLen(k.Set(d))
		}
		sc.vols[i] = k.Volume()
	}
	if !dirty {
		return
	}
	for i, ci := range children {
		for j := i + 1; j < n; j++ {
			if !sc.stale[i] && !sc.stale[j] {
				continue
			}
			cj := children[j]
			for d := 0; d < dims; d++ {
				l := keys.IntersectLen(ci.key.Set(d), cj.key.Set(d))
				sc.inter[(i*n+j)*dims+d] = l
				sc.inter[(j*n+i)*dims+d] = l
			}
		}
	}
}

// choose picks the child whose extension by t overlaps its siblings
// least, breaking ties by least enlargement — the paper's least-overlap
// rule (§III-C). Only the dimensions where t reaches outside a child's
// key are recomputed; every other factor comes from the cache. Products
// and sums run in the order keys.Key.OverlapVolume and Volume use, so the
// choice is the one a freshly extended clone of each key would give.
// The caller holds the node's write lock and every child's read lock.
func (sc *scoreCache) choose(children []*inode, t target, dims int) int {
	sc.sync(children, dims)
	n := len(children)
	best, bestOv, bestEnl := -1, 0.0, 0.0
	for i, c := range children {
		row := sc.row[:n*dims]
		copy(row, sc.inter[i*n*dims:(i+1)*n*dims])
		vol := 1.0
		for d := 0; d < dims; d++ {
			set, changed := t.extendedSet(c.key, d, sc.buf)
			if !changed {
				vol *= float64(sc.lens[i*dims+d])
				continue
			}
			sc.buf = set[:0]
			vol *= float64(keys.SetLen(set))
			for j, o := range children {
				if j != i {
					row[j*dims+d] = keys.IntersectLen(set, o.key.Set(d))
				}
			}
		}
		ov := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				ov += overlapVolume(row[j*dims : (j+1)*dims])
			}
		}
		enl := vol - sc.vols[i]
		if best == -1 || ov < bestOv || (ov == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, ov, enl
		}
	}
	return best
}

// enlargement measures how much extending k by t grows its volume. The
// caller must have exclusive or read access to k and hold the write lock
// of the node that owns sc.
func (sc *scoreCache) enlargement(k *keys.Key, t target, dims int) float64 {
	vol := 1.0
	for d := 0; d < dims; d++ {
		set, changed := t.extendedSet(k, d, sc.buf)
		if changed {
			sc.buf = set[:0]
		}
		vol *= float64(keys.SetLen(set))
	}
	return vol - k.Volume()
}

// overlapVolume multiplies per-dimension intersection lengths the way
// keys.Key.OverlapVolume does.
func overlapVolume(lens []uint64) float64 {
	v := 1.0
	for _, l := range lens {
		if l == 0 {
			return 0
		}
		v *= float64(l)
	}
	return v
}
