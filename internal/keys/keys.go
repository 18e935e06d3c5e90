// Package keys implements the spatial keys used by VOLAP's tree
// structures: Minimum Bounding Rectangles (MBR, one box) and Minimum
// Describing Subsets (MDS, multiple boxes), per §III-A/§III-D of the
// paper.
//
// Both key kinds are expressed in leaf-ordinal space (see package
// hierarchy): because every hierarchy value is a contiguous interval of
// leaf ordinals, an MBR is one interval per dimension and an MDS is a
// small set of disjoint intervals per dimension. An MDS region is the
// cartesian product of its per-dimension unions, so containment, overlap
// and volume all decompose per dimension.
//
// MDS minimality is realized by merging adjacent intervals eagerly and, on
// overflow of the per-dimension cap, merging the pair of intervals with
// the smallest gap — a superset-preserving coarsening, so keys always
// describe at least the data below them (the invariant queries rely on).
package keys

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/hierarchy"
	"repro/internal/wire"
)

// Kind selects the key representation.
type Kind uint8

const (
	// MDS keys keep up to a configurable number of intervals per
	// dimension. MDS is the zero value: it is what the paper's preferred
	// store variants use.
	MDS Kind = iota
	// MBR keys keep a single interval per dimension.
	MBR
)

// String returns "MBR" or "MDS".
func (k Kind) String() string {
	if k == MBR {
		return "MBR"
	}
	return "MDS"
}

// DefaultMDSCap is the default per-dimension interval cap for MDS keys.
const DefaultMDSCap = 4

// Rect is a query region: one hierarchy-value interval per dimension
// (possibly the All interval). Queries in VOLAP specify a value at some
// level in every dimension (§IV), which is exactly one ordinal interval
// per dimension.
type Rect struct {
	Ivs []hierarchy.Interval
}

// NewRect returns a Rect over the given intervals.
func NewRect(ivs ...hierarchy.Interval) Rect {
	return Rect{Ivs: ivs}
}

// AllRect returns the rectangle covering the entire space of the schema.
func AllRect(s *hierarchy.Schema) Rect {
	ivs := make([]hierarchy.Interval, s.NumDims())
	for i := range ivs {
		ivs[i] = hierarchy.Interval{Lo: 0, Hi: s.Dim(i).LeafCount() - 1}
	}
	return Rect{Ivs: ivs}
}

// ContainsPoint reports whether the point lies inside the rectangle.
func (r Rect) ContainsPoint(coords []uint64) bool {
	for d, iv := range r.Ivs {
		if !iv.Contains(coords[d]) {
			return false
		}
	}
	return true
}

// CoverageFraction returns the fraction of the schema's full space the
// rectangle covers — the paper's "query coverage".
func (r Rect) CoverageFraction(s *hierarchy.Schema) float64 {
	frac := 1.0
	for d, iv := range r.Ivs {
		frac *= float64(iv.Len()) / float64(s.Dim(d).LeafCount())
	}
	return frac
}

// Encode serializes the rectangle.
func (r Rect) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(r.Ivs)))
	for _, iv := range r.Ivs {
		w.Uvarint(iv.Lo)
		w.Uvarint(iv.Hi - iv.Lo)
	}
}

// DecodeRect reads a rectangle serialized by Encode.
func DecodeRect(rd *wire.Reader) (Rect, error) {
	n := rd.Uvarint()
	if rd.Err() != nil || n > 64 {
		return Rect{}, fmt.Errorf("keys: bad rect dimension count %d", n)
	}
	ivs := make([]hierarchy.Interval, n)
	for i := range ivs {
		lo := rd.Uvarint()
		span := rd.Uvarint()
		ivs[i] = hierarchy.Interval{Lo: lo, Hi: lo + span}
	}
	if rd.Err() != nil {
		return Rect{}, rd.Err()
	}
	return Rect{Ivs: ivs}, nil
}

// String renders the rectangle.
func (r Rect) String() string {
	parts := make([]string, len(r.Ivs))
	for i, iv := range r.Ivs {
		parts[i] = fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
	}
	return strings.Join(parts, "×")
}

// Key is a spatial key: the bounding description of a set of points. A Key
// is either empty (describes nothing) or covers the cartesian product of
// its per-dimension interval unions. Keys are not safe for concurrent
// mutation; tree nodes guard them with their own locks.
type Key struct {
	kind  Kind
	empty bool
	cap   int
	gen   uint64                 // bumped by every mutation that changes the region
	sets  [][]hierarchy.Interval // per dim, sorted, disjoint, non-adjacent
}

// NewEmpty returns an empty key for the given kind and dimension count.
// For MDS keys, capPerDim bounds the number of intervals kept per
// dimension (0 selects DefaultMDSCap); MBR keys always keep one. With a
// cap of at most 8, every dimension's set starts in one shared slab with
// room for cap+1 intervals (an extension's transient overflow), so
// growing the key to its cap allocates nothing more.
func NewEmpty(kind Kind, dims, capPerDim int) *Key {
	cp := IntervalCap(kind, capPerDim)
	k := &Key{kind: kind, cap: cp, empty: true, sets: make([][]hierarchy.Interval, dims)}
	if cp <= unionStack/2 {
		slot := cp + 1
		slab := make([]hierarchy.Interval, dims*slot)
		for d := range k.sets {
			k.sets[d] = slab[d*slot : d*slot : (d+1)*slot]
		}
	}
	return k
}

// IntervalCap returns the per-dimension interval cap NewEmpty gives a
// key of the kind asked for with capPerDim.
func IntervalCap(kind Kind, capPerDim int) int {
	if kind == MBR {
		return 1
	}
	if capPerDim <= 0 {
		return DefaultMDSCap
	}
	return capPerDim
}

// NewPoint returns a key describing exactly one point.
func NewPoint(kind Kind, capPerDim int, coords []uint64) *Key {
	k := NewEmpty(kind, len(coords), capPerDim)
	k.ExtendPoint(coords)
	return k
}

// Kind returns the key's representation kind.
func (k *Key) Kind() Kind { return k.kind }

// Dims returns the number of dimensions.
func (k *Key) Dims() int { return len(k.sets) }

// Empty reports whether the key describes no points.
func (k *Key) Empty() bool { return k.empty }

// Clone returns a deep copy.
func (k *Key) Clone() *Key {
	c := &Key{kind: k.kind, cap: k.cap, empty: k.empty, sets: make([][]hierarchy.Interval, len(k.sets))}
	for d, set := range k.sets {
		c.sets[d] = append([]hierarchy.Interval(nil), set...)
	}
	return c
}

// CopyFrom overwrites k with o's contents, reusing k's storage. It
// counts as a region change for Gen.
func (k *Key) CopyFrom(o *Key) {
	k.kind, k.cap, k.empty = o.kind, o.cap, o.empty
	k.gen++
	if len(k.sets) != len(o.sets) {
		k.sets = make([][]hierarchy.Interval, len(o.sets))
	}
	for d, set := range o.sets {
		k.sets[d] = append(k.sets[d][:0], set...)
	}
}

// Reset empties k in place, keeping its storage. It counts as a region
// change for Gen.
func (k *Key) Reset() {
	for d := range k.sets {
		k.sets[d] = k.sets[d][:0]
	}
	k.empty = true
	k.gen++
}

// Set returns the interval set of dimension d (aliased, do not mutate).
func (k *Key) Set(d int) []hierarchy.Interval { return k.sets[d] }

// Gen returns the key's generation: a counter that ExtendPoint, ExtendKey
// and CopyFrom bump whenever they change the key's region, and only then.
// A value derived from the key while Gen read g is still valid while Gen
// reads g.
func (k *Key) Gen() uint64 { return k.gen }

// Bounds returns the overall [min,max] interval of dimension d. The key
// must not be empty.
func (k *Key) Bounds(d int) hierarchy.Interval {
	set := k.sets[d]
	return hierarchy.Interval{Lo: set[0].Lo, Hi: set[len(set)-1].Hi}
}

// ContainsPoint reports whether the point lies inside the key's region.
func (k *Key) ContainsPoint(coords []uint64) bool {
	if k.empty {
		return false
	}
	for d, set := range k.sets {
		if !setContains(set, coords[d]) {
			return false
		}
	}
	return true
}

// OverlapsRect reports whether the key's region intersects the rectangle.
func (k *Key) OverlapsRect(r Rect) bool {
	if k.empty {
		return false
	}
	for d, set := range k.sets {
		if !setOverlapsInterval(set, r.Ivs[d]) {
			return false
		}
	}
	return true
}

// CoveredByRect reports whether the key's region lies entirely inside the
// rectangle; when true, a node's cached aggregate can answer the query
// without descending (§III-D).
func (k *Key) CoveredByRect(r Rect) bool {
	if k.empty {
		return false
	}
	for d, set := range k.sets {
		if set[0].Lo < r.Ivs[d].Lo || set[len(set)-1].Hi > r.Ivs[d].Hi {
			return false
		}
	}
	return true
}

// CoveredByKey reports whether k's region lies entirely inside o's
// region. Regions are cartesian products, so this holds exactly when
// every per-dimension set of k is a subset of o's.
func (k *Key) CoveredByKey(o *Key) bool {
	if k.empty {
		return true
	}
	if o.empty {
		return false
	}
	for d := range k.sets {
		if IntersectLen(k.sets[d], o.sets[d]) != SetLen(k.sets[d]) {
			return false
		}
	}
	return true
}

// OverlapsKey reports whether two key regions intersect.
func (k *Key) OverlapsKey(o *Key) bool {
	if k.empty || o.empty {
		return false
	}
	for d := range k.sets {
		if IntersectLen(k.sets[d], o.sets[d]) == 0 {
			return false
		}
	}
	return true
}

// ExtendPoint grows the key minimally to include the point.
func (k *Key) ExtendPoint(coords []uint64) {
	if k.empty {
		for d, c := range coords {
			k.sets[d] = append(k.sets[d][:0], hierarchy.Interval{Lo: c, Hi: c})
		}
		k.empty = false
		k.gen++
		return
	}
	grew := false
	for d, c := range coords {
		var g bool
		k.sets[d], g = setAddOrdinal(k.sets[d], c, k.cap)
		grew = grew || g
	}
	if grew {
		k.gen++
	}
}

// unionStack sizes ExtendKey's on-stack union buffer: room for two
// full sets of an MDS key with a cap of up to 8.
const unionStack = 16

// ExtendKey grows the key minimally to include o's region. Each
// dimension's union is built in a stack buffer and copied back into k's
// own set.
func (k *Key) ExtendKey(o *Key) {
	if o.empty {
		return
	}
	if k.empty {
		k.CopyFrom(o)
		return
	}
	grew := false
	var buf [unionStack]hierarchy.Interval
	for d, set := range k.sets {
		u := UnionSets(buf[:0], set, o.sets[d], k.cap)
		if !slices.Equal(u, set) {
			grew = true
			k.sets[d] = append(set[:0], u...)
		}
	}
	if grew {
		k.gen++
	}
}

// ExtendedSetPoint returns the interval set dimension d would have after
// ExtendPoint with ordinal ord in that dimension, and whether it differs
// from Set(d). k is not mutated: a differing set is built in buf (grown
// if needed), an unchanged one is Set(d) itself.
func (k *Key) ExtendedSetPoint(d int, ord uint64, buf []hierarchy.Interval) ([]hierarchy.Interval, bool) {
	set := k.sets[d]
	if setContains(set, ord) {
		return set, false
	}
	ext, _ := setAddOrdinal(append(buf[:0], set...), ord, k.cap)
	return ext, true
}

// ExtendedSetKey is ExtendedSetPoint for ExtendKey(o).
func (k *Key) ExtendedSetKey(d int, o *Key, buf []hierarchy.Interval) ([]hierarchy.Interval, bool) {
	set, add := k.sets[d], o.sets[d]
	switch {
	case o.empty || (!k.empty && IntersectLen(add, set) == SetLen(add)):
		return set, false
	case k.empty:
		return append(buf[:0], add...), true
	}
	return UnionSets(buf[:0], set, add, k.cap), true
}

// Volume returns the number of grid cells covered by the key's region, as
// a float64 (regions are cartesian products, so this is the product of
// per-dimension covered lengths).
func (k *Key) Volume() float64 {
	if k.empty {
		return 0
	}
	v := 1.0
	for _, set := range k.sets {
		v *= float64(SetLen(set))
	}
	return v
}

// OverlapVolume returns the volume of the intersection of two key regions.
func (k *Key) OverlapVolume(o *Key) float64 {
	if k.empty || o.empty {
		return 0
	}
	v := 1.0
	for d := range k.sets {
		l := IntersectLen(k.sets[d], o.sets[d])
		if l == 0 {
			return 0
		}
		v *= float64(l)
	}
	return v
}

// EnlargementPoint returns the volume increase caused by extending the key
// to include the point, without mutating the key.
func (k *Key) EnlargementPoint(coords []uint64) float64 {
	if k.empty {
		return 1
	}
	before, after := 1.0, 1.0
	for d, set := range k.sets {
		l := SetLen(set)
		before *= float64(l)
		if setContains(set, coords[d]) {
			after *= float64(l)
		} else {
			after *= float64(l + 1) // one new cell in this dimension
		}
	}
	return after - before
}

// Equal reports whether two keys describe the same region.
func (k *Key) Equal(o *Key) bool {
	if k.empty != o.empty || len(k.sets) != len(o.sets) {
		return false
	}
	if k.empty {
		return true
	}
	for d := range k.sets {
		if len(k.sets[d]) != len(o.sets[d]) {
			return false
		}
		for i := range k.sets[d] {
			if k.sets[d][i] != o.sets[d][i] {
				return false
			}
		}
	}
	return true
}

// String renders the key.
func (k *Key) String() string {
	if k.empty {
		return k.kind.String() + "{empty}"
	}
	var sb strings.Builder
	sb.WriteString(k.kind.String())
	sb.WriteByte('{')
	for d, set := range k.sets {
		if d > 0 {
			sb.WriteString(" × ")
		}
		for i, iv := range set {
			if i > 0 {
				sb.WriteRune('∪')
			}
			fmt.Fprintf(&sb, "[%d,%d]", iv.Lo, iv.Hi)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Encode serializes the key.
func (k *Key) Encode(w *wire.Writer) {
	w.Uint8(uint8(k.kind))
	w.Uvarint(uint64(k.cap))
	w.Bool(k.empty)
	w.Uvarint(uint64(len(k.sets)))
	for _, set := range k.sets {
		w.Uvarint(uint64(len(set)))
		prev := uint64(0)
		for _, iv := range set {
			w.Uvarint(iv.Lo - prev)
			w.Uvarint(iv.Hi - iv.Lo)
			prev = iv.Hi
		}
	}
}

// DecodeKey reads a key serialized by Encode, validating the structural
// invariants the rest of the package relies on: the cap is one NewEmpty
// gives the kind, a non-empty key has between one and cap intervals in
// every dimension, and each dimension's intervals are sorted, disjoint,
// and non-adjacent.
func DecodeKey(rd *wire.Reader) (*Key, error) {
	kind := Kind(rd.Uint8())
	cp := rd.Uvarint()
	empty := rd.Bool()
	dims := rd.Uvarint()
	if rd.Err() != nil || dims > 64 || kind > MBR {
		return nil, fmt.Errorf("keys: bad key header (dims=%d)", dims)
	}
	// A cap NewEmpty could not have produced would make the next
	// extension index out of range in coarsen.
	if (kind == MBR && cp != 1) || cp == 0 || cp > 1<<20 {
		return nil, fmt.Errorf("keys: bad %v interval cap %d", kind, cp)
	}
	k := &Key{kind: kind, cap: int(cp), empty: empty, sets: make([][]hierarchy.Interval, dims)}
	for d := range k.sets {
		n := rd.Uvarint()
		if rd.Err() != nil || n > cp || uint64(rd.Remaining()) < n {
			return nil, fmt.Errorf("keys: bad interval count %d (cap %d)", n, cp)
		}
		if empty && n != 0 {
			return nil, fmt.Errorf("keys: empty key with %d intervals", n)
		}
		if !empty && n == 0 {
			return nil, fmt.Errorf("keys: non-empty key with empty dimension %d", d)
		}
		set := make([]hierarchy.Interval, n)
		prev := uint64(0)
		for i := range set {
			gap := rd.Uvarint()
			if i > 0 && gap < 2 {
				// Adjacent or overlapping intervals are never produced by
				// the encoder (they would have been merged).
				return nil, fmt.Errorf("keys: intervals not disjoint in dimension %d", d)
			}
			lo := prev + gap
			if lo < prev {
				return nil, fmt.Errorf("keys: interval overflow in dimension %d", d)
			}
			span := rd.Uvarint()
			hi := lo + span
			if hi < lo {
				return nil, fmt.Errorf("keys: interval overflow in dimension %d", d)
			}
			set[i] = hierarchy.Interval{Lo: lo, Hi: hi}
			prev = hi
		}
		k.sets[d] = set
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return k, nil
}

// --- interval set primitives -------------------------------------------
//
// Sets are sorted by Lo, pairwise disjoint, and never adjacent (adjacent
// runs are merged eagerly), so binary search applies.

// setContains reports whether ord falls inside any interval of the set.
func setContains(set []hierarchy.Interval, ord uint64) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i].Hi >= ord })
	return i < len(set) && set[i].Lo <= ord
}

// setOverlapsInterval reports whether any interval of the set intersects iv.
func setOverlapsInterval(set []hierarchy.Interval, iv hierarchy.Interval) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i].Hi >= iv.Lo })
	return i < len(set) && set[i].Lo <= iv.Hi
}

// SetLen returns the total number of ordinals covered by an interval set.
func SetLen(set []hierarchy.Interval) uint64 {
	var n uint64
	for _, iv := range set {
		n += iv.Len()
	}
	return n
}

// IntersectLen returns the number of ordinals covered by both interval
// sets.
func IntersectLen(a, b []hierarchy.Interval) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].Lo, b[j].Lo)
		hi := min64(a[i].Hi, b[j].Hi)
		if lo <= hi {
			n += hi - lo + 1
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// setAddOrdinal inserts a single ordinal, merging with neighbors and
// coarsening to the cap. It reports whether the set changed.
func setAddOrdinal(set []hierarchy.Interval, ord uint64, cap int) ([]hierarchy.Interval, bool) {
	i := sort.Search(len(set), func(i int) bool { return set[i].Hi >= ord })
	if i < len(set) && set[i].Lo <= ord {
		return set, false // already covered
	}
	// Try to attach to the interval ending just before or starting just
	// after ord.
	if i > 0 && set[i-1].Hi+1 == ord {
		set[i-1].Hi = ord
		// May now touch set[i].
		if i < len(set) && set[i].Lo == ord+1 {
			set[i-1].Hi = set[i].Hi
			set = append(set[:i], set[i+1:]...)
		}
		return set, true
	}
	if i < len(set) && set[i].Lo == ord+1 {
		set[i].Lo = ord
		return set, true
	}
	set = append(set, hierarchy.Interval{})
	copy(set[i+1:], set[i:])
	set[i] = hierarchy.Interval{Lo: ord, Hi: ord}
	return coarsen(set, cap), true
}

// UnionSets appends the union of interval sets a and b to out[:0] (out
// must not alias them), coalescing overlaps and adjacency and coarsening
// to the cap, and returns it. It is ExtendKey's per-dimension step on raw
// sets: an empty set on either side yields the other, coarsened to the
// cap. It allocates nothing when out has room for len(a)+len(b)
// intervals.
func UnionSets(out, a, b []hierarchy.Interval, cap int) []hierarchy.Interval {
	out = out[:0]
	i, j := 0, 0
	push := func(iv hierarchy.Interval) {
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi+1 {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			return
		}
		out = append(out, iv)
	}
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo):
			push(a[i])
			i++
		default:
			push(b[j])
			j++
		}
	}
	return coarsen(out, cap)
}

// coarsen merges the closest-gap interval pairs until the set fits the
// cap. The result is a superset of the input's coverage.
func coarsen(set []hierarchy.Interval, cap int) []hierarchy.Interval {
	for len(set) > cap {
		best, bestGap := 0, uint64(1)<<63
		for i := 0; i+1 < len(set); i++ {
			gap := set[i+1].Lo - set[i].Hi
			if gap < bestGap {
				best, bestGap = i, gap
			}
		}
		set[best].Hi = set[best+1].Hi
		set = append(set[:best+1], set[best+2:]...)
	}
	return set
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
