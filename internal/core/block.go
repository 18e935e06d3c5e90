package core

import (
	"math"
	"math/bits"

	"repro/internal/keys"
)

// block holds a leaf's items column-major: one column of ordinals per
// dimension and a measure column, each in item order (Hilbert order in
// Hilbert mode). Column d is cols[d*stride : d*stride+n]. A scan reads
// only the columns of the dimensions a query cuts inside the leaf's key,
// in place, into a match mask of one bit per item.
type block struct {
	dims   int
	n      int       // items held
	stride int       // items each column has room for
	cols   []uint64  // dims*stride ordinals
	meas   []float64 // stride measures
}

// blockStore is a store that lends out its leaf blocks: eachBlock calls
// fn with every block in item order, each under its leaf's read lock,
// until fn returns false. fn must not keep the block.
type blockStore interface {
	Store
	eachBlock(fn func(b *block) bool)
}

var _ blockStore = (*tree)(nil)
var _ blockStore = (*arrayStore)(nil)

// newBlock returns an empty block with room for stride items.
func newBlock(dims, stride int) block {
	return block{dims: dims, stride: stride, cols: make([]uint64, dims*stride), meas: make([]float64, stride)}
}

// col returns dimension d's column (aliased).
func (b *block) col(d int) []uint64 {
	off := d * b.stride
	return b.cols[off : off+b.n : off+b.n]
}

// row copies item i's coordinates into dst, which has dims entries.
func (b *block) row(i int, dst []uint64) {
	for d := range dst {
		dst[d] = b.cols[d*b.stride+i]
	}
}

// set writes item i, which must be below n.
func (b *block) set(i int, coords []uint64, m float64) {
	for d, c := range coords {
		b.cols[d*b.stride+i] = c
	}
	b.meas[i] = m
}

// grow doubles the stride, to at most limit when limit > 0 (a tree leaf
// never holds more than its capacity): the growth of append, so a block
// carries no more slack than the item slice it replaced.
func (b *block) grow(limit int) {
	stride := max(2*b.stride, 1)
	if limit > 0 {
		stride = min(stride, limit)
	}
	nb := newBlock(b.dims, stride)
	for d := 0; d < b.dims; d++ {
		copy(nb.cols[d*stride:], b.col(d))
	}
	copy(nb.meas, b.meas[:b.n])
	nb.n = b.n
	*b = nb
}

// insert places an item at position pos, shifting the items after it.
func (b *block) insert(pos int, coords []uint64, m float64, limit int) {
	if b.n == b.stride {
		b.grow(limit)
	}
	for d := 0; d < b.dims; d++ {
		col := b.cols[d*b.stride : d*b.stride+b.n+1]
		copy(col[pos+1:], col[pos:b.n])
	}
	copy(b.meas[pos+1:b.n+1], b.meas[pos:b.n])
	b.n++
	b.set(pos, coords, m)
}

// slice returns a new block holding items [lo, hi) with room for
// stride items (at least hi-lo).
func (b *block) slice(lo, hi, stride int) block {
	nb := newBlock(b.dims, max(stride, hi-lo))
	nb.n = hi - lo
	for d := 0; d < b.dims; d++ {
		copy(nb.cols[d*nb.stride:], b.cols[d*b.stride+lo:d*b.stride+hi])
	}
	copy(nb.meas, b.meas[lo:hi])
	return nb
}

// permute reorders the items so that new item i is old item perm[i],
// staging each column in buf (grown to n if shorter), and returns buf.
// Measures are staged as their bits.
func (b *block) permute(perm []int, buf []uint64) []uint64 {
	if len(buf) < b.n {
		buf = make([]uint64, b.n)
	}
	tmp := buf[:b.n]
	for d := 0; d < b.dims; d++ {
		col := b.col(d)
		for i, p := range perm {
			tmp[i] = col[p]
		}
		copy(col, tmp)
	}
	for i, p := range perm {
		tmp[i] = math.Float64bits(b.meas[p])
	}
	for i, v := range tmp {
		b.meas[i] = math.Float64frombits(v)
	}
	return buf
}

// items returns the block's items in order, their coordinates in one
// flat allocation the caller owns.
func (b *block) items() []Item {
	flat := make([]uint64, b.n*b.dims)
	out := make([]Item, b.n)
	for i := range out {
		row := flat[i*b.dims : (i+1)*b.dims : (i+1)*b.dims]
		b.row(i, row)
		out[i] = Item{Coords: row, Measure: b.meas[i]}
	}
	return out
}

// newMask returns a match mask for n items: buf when it is long enough,
// else a new slice.
func newMask(buf []uint64, n int) []uint64 {
	w := (n + 63) / 64
	if w <= len(buf) {
		return buf[:w]
	}
	return make([]uint64, w)
}

// stackDims sizes on-stack coordinate rows: room for every schema up to
// 16 dimensions (TPC-DS has 8).
const stackDims = 16

// rowBuf returns buf[:dims] when buf is long enough, else a new slice.
func rowBuf(buf []uint64, dims int) []uint64 {
	if dims <= len(buf) {
		return buf[:dims]
	}
	return make([]uint64, dims)
}

// stackMaskWords sizes the on-stack match mask: enough for a leaf of the
// default capacity, so a default tree's scans allocate nothing.
const stackMaskWords = (defaultLeafCapacity + 63) / 64

// match sets mask (from newMask) to the items inside q and returns
// the number of columns it tested. k must bound the block's items and
// overlap q. Dimensions whose bounds in k lie inside q's interval are
// skipped: every item passes them. Each remaining column is tested in
// full, 64 items per mask word, until no item is left.
func (b *block) match(k *keys.Key, q keys.Rect, mask []uint64) (tested int) {
	for w := range mask {
		mask[w] = ^uint64(0)
	}
	if r := b.n % 64; r != 0 {
		mask[len(mask)-1] = 1<<r - 1
	}
	for d, iv := range q.Ivs {
		kb := k.Bounds(d)
		if iv.Lo <= kb.Lo && kb.Hi <= iv.Hi {
			continue
		}
		// Clamped to the key, lo and hi are ordinals (below 2^31), so
		// the sign bit of c-lo and hi-c says whether c lies outside.
		lo, hi := max(iv.Lo, kb.Lo), min(iv.Hi, kb.Hi)
		tested++
		col := b.col(d)
		var left uint64
		for w := range mask {
			if mask[w] == 0 {
				continue
			}
			var in uint64
			for i, c := range col[w*64 : min(len(col), w*64+64)] {
				in |= (((c-lo)|(hi-c))>>63 ^ 1) << (uint(i) & 63)
			}
			mask[w] &= in
			left |= mask[w]
		}
		if left == 0 {
			return tested
		}
	}
	return tested
}

// eachSet calls f with the index of every item set in mask, in
// ascending item order: the order that keeps folded sums bit for bit
// those of a row scan.
func eachSet(mask []uint64, f func(i int)) {
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			f(w*64 + bits.TrailingZeros64(m))
		}
	}
}

// fold adds the measures of the items set in mask to agg, in item order.
func (b *block) fold(mask []uint64, agg *Aggregate) {
	eachSet(mask, func(i int) { agg.AddItem(b.meas[i]) })
}

// scan folds the items inside q into agg and counts the work in st. k
// bounds the block, overlaps q and does not lie inside it.
func (b *block) scan(k *keys.Key, q keys.Rect, agg *Aggregate, st *QueryStats) {
	var buf [stackMaskWords]uint64
	mask := newMask(buf[:], b.n)
	st.LeavesScanned++
	st.ItemsScanned += b.n
	st.ColumnsTested += b.match(k, q, mask)
	b.fold(mask, agg)
}
