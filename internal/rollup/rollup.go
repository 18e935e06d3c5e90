// Package rollup implements materialized rollup tables: per-shard
// pre-aggregated cubes keyed by a hierarchy depth per dimension. A
// rollup definition names one grid over the schema — depth 0 aggregates
// a dimension away entirely, depth k keys cells by the dimension's
// depth-k value — and a table holds one Aggregate cell per occupied
// grid position. A query whose rectangle is aligned to the grid is
// answered by merging the covering cells instead of scanning the tree,
// and a group-by at a level at or above a keyed dimension's depth
// becomes a fold over cells.
//
// Tables mirror the shard *store* exactly: the worker folds every batch
// it applies to the store (bulk loads, buffer drains) into the tables
// under the same shard-lock hold, and rollup reads merge the insertion
// buffer on top — so a rollup
// answer equals a raw scan at every instant the shard read lock can
// observe.
package rollup

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/wire"
)

// MaxCells bounds the *potential* grid size of one definition (the
// product of per-dimension group counts). Cells are stored sparsely, so
// this only guards against definitions whose cell keys could not be
// packed into a uint64 or whose dense enumeration could overflow.
const MaxCells = uint64(1) << 62

// Def is one rollup definition: a hierarchy depth per schema dimension.
// Depths[d] == 0 keys no cell on dimension d (it is aggregated away);
// Depths[d] == k keys cells by the dimension's depth-k value.
type Def struct {
	Depths []int
}

// Validate checks the definition against a schema.
func (def Def) Validate(s *hierarchy.Schema) error {
	if len(def.Depths) != s.NumDims() {
		return fmt.Errorf("rollup: definition has %d depths, schema has %d dimensions", len(def.Depths), s.NumDims())
	}
	cells := uint64(1)
	for d, depth := range def.Depths {
		dim := s.Dim(d)
		if depth < 0 || depth > dim.Depth() {
			return fmt.Errorf("rollup: depth %d out of range [0,%d] for dimension %s", depth, dim.Depth(), dim.Name())
		}
		groups := dim.LeafCount() / dim.LeavesUnder(depth)
		if cells > MaxCells/groups {
			return fmt.Errorf("rollup: definition exceeds %d potential cells", MaxCells)
		}
		cells *= groups
	}
	return nil
}

// Equal reports whether two definitions are identical.
func (def Def) Equal(o Def) bool {
	if len(def.Depths) != len(o.Depths) {
		return false
	}
	for i, d := range def.Depths {
		if d != o.Depths[i] {
			return false
		}
	}
	return true
}

// Covers reports whether every cell of the definition's grid lies
// entirely inside or outside q: each dimension's interval must start
// and end on a cell-span boundary (a depth-0 dimension's single group
// spans the whole dimension, so the interval must cover it all). Only
// then can the cells alone answer q exactly.
func (def Def) Covers(s *hierarchy.Schema, q keys.Rect) bool {
	if len(def.Depths) != s.NumDims() || len(q.Ivs) != s.NumDims() {
		return false
	}
	for d, iv := range q.Ivs {
		span := s.Dim(d).LeavesUnder(def.Depths[d])
		if iv.Lo%span != 0 || (iv.Hi+1)%span != 0 {
			return false
		}
	}
	return true
}

// CellsIn estimates the cost of answering q from this definition's
// grid: the number of grid positions q covers (occupied or not).
func (def Def) CellsIn(s *hierarchy.Schema, q keys.Rect) uint64 {
	n := uint64(1)
	for d, iv := range q.Ivs {
		span := s.Dim(d).LeavesUnder(def.Depths[d])
		groups := iv.Hi/span - iv.Lo/span + 1
		if n > MaxCells/groups {
			return MaxCells
		}
		n *= groups
	}
	return n
}

// Encode serializes the definition.
func (def Def) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(def.Depths)))
	for _, d := range def.Depths {
		w.Uvarint(uint64(d))
	}
}

// DecodeDef reads a definition serialized by Encode.
func DecodeDef(r *wire.Reader) (Def, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return Def{}, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return Def{}, fmt.Errorf("rollup: definition dimension count %d exceeds payload", n)
	}
	def := Def{Depths: make([]int, n)}
	for i := range def.Depths {
		def.Depths[i] = int(r.Uvarint())
	}
	return def, r.Err()
}

// String renders the definition as "name:depth,..." over its keyed
// dimensions (schema-free form: "dim0:2,dim3:1" by index).
func (def Def) String() string {
	var b strings.Builder
	for d, depth := range def.Depths {
		if depth == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(d))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(depth))
	}
	if b.Len() == 0 {
		return "all"
	}
	return b.String()
}

// ParseDef parses a "dim:depth[,dim:depth...]" specification against a
// schema; dim is a dimension index or name, depth a hierarchy depth
// (1-based levels; the dimension's full depth keys individual leaves).
// Unmentioned dimensions get depth 0 (aggregated away). The literal
// "all" yields the everything-aggregated definition.
func ParseDef(s *hierarchy.Schema, spec string) (Def, error) {
	def := Def{Depths: make([]int, s.NumDims())}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Def{}, fmt.Errorf("rollup: empty definition spec")
	}
	if spec == "all" {
		return def, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return Def{}, fmt.Errorf("rollup: bad spec element %q (want dim:depth)", part)
		}
		d := -1
		if idx, err := strconv.Atoi(kv[0]); err == nil {
			d = idx
		} else {
			for i := 0; i < s.NumDims(); i++ {
				if s.Dim(i).Name() == kv[0] {
					d = i
					break
				}
			}
		}
		if d < 0 || d >= s.NumDims() {
			return Def{}, fmt.Errorf("rollup: unknown dimension %q", kv[0])
		}
		depth, err := strconv.Atoi(kv[1])
		if err != nil {
			return Def{}, fmt.Errorf("rollup: bad depth %q for dimension %q", kv[1], kv[0])
		}
		def.Depths[d] = depth
	}
	if err := def.Validate(s); err != nil {
		return Def{}, err
	}
	return def, nil
}

// Table is one shard's materialized cells for one definition. Cell
// mutation and reads are serialized by the table's own mutex; the
// caller's shard-lock discipline decides *when* cells may change
// relative to the store (see the package comment).
type Table struct {
	def     Def
	spans   []uint64 // leaves per cell in each dimension
	counts  []uint64 // grid positions per dimension
	strides []uint64 // mixed-radix strides packing grid coords into a key

	mu    sync.Mutex
	cells map[uint64]core.Aggregate
}

// NewTable builds an empty table for a validated definition.
func NewTable(s *hierarchy.Schema, def Def) *Table {
	n := s.NumDims()
	t := &Table{
		def:     def,
		spans:   make([]uint64, n),
		counts:  make([]uint64, n),
		strides: make([]uint64, n),
		cells:   make(map[uint64]core.Aggregate),
	}
	for d := 0; d < n; d++ {
		t.spans[d] = s.Dim(d).LeavesUnder(def.Depths[d])
		t.counts[d] = s.Dim(d).LeafCount() / t.spans[d]
	}
	stride := uint64(1)
	for d := n - 1; d >= 0; d-- {
		t.strides[d] = stride
		stride *= t.counts[d]
	}
	return t
}

// Def returns the table's definition.
func (t *Table) Def() Def { return t.def }

// key packs an item's grid position into the cell key.
func (t *Table) key(coords []uint64) uint64 {
	k := uint64(0)
	for d, c := range coords {
		k += (c / t.spans[d]) * t.strides[d]
	}
	return k
}

// Add folds a batch of items into the cells.
func (t *Table) Add(items []core.Item) {
	t.mu.Lock()
	for i := range items {
		k := t.key(items[i].Coords)
		agg, ok := t.cells[k]
		if !ok {
			agg = core.NewAggregate()
		}
		agg.AddItem(items[i].Measure)
		t.cells[k] = agg
	}
	t.mu.Unlock()
}

// AddItem folds one item into the cells.
func (t *Table) AddItem(coords []uint64, measure float64) {
	t.mu.Lock()
	k := t.key(coords)
	agg, ok := t.cells[k]
	if !ok {
		agg = core.NewAggregate()
	}
	agg.AddItem(measure)
	t.cells[k] = agg
	t.mu.Unlock()
}

// Cells returns the number of occupied cells.
func (t *Table) Cells() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cells)
}

// scan visits every occupied cell inside q (which must satisfy
// def.Covers) with its per-dimension grid coordinates. It picks the
// cheaper of enumerating q's grid positions and filtering the occupied
// map. The caller holds t.mu.
func (t *Table) scan(q keys.Rect, fn func(grid []uint64, agg core.Aggregate)) {
	n := len(t.spans)
	lo := make([]uint64, n)
	hi := make([]uint64, n)
	enum := uint64(1)
	for d, iv := range q.Ivs {
		lo[d] = iv.Lo / t.spans[d]
		hi[d] = iv.Hi / t.spans[d]
		w := hi[d] - lo[d] + 1
		if enum > MaxCells/w {
			enum = MaxCells
		} else {
			enum *= w
		}
	}
	grid := make([]uint64, n)
	if enum <= uint64(len(t.cells)) {
		// Odometer over q's grid positions; direct map lookups.
		copy(grid, lo)
		for {
			k := uint64(0)
			for d := range grid {
				k += grid[d] * t.strides[d]
			}
			if agg, ok := t.cells[k]; ok {
				fn(grid, agg)
			}
			d := n - 1
			for ; d >= 0; d-- {
				if grid[d] < hi[d] {
					grid[d]++
					break
				}
				grid[d] = lo[d]
			}
			if d < 0 {
				return
			}
		}
	}
	// Sparser to walk the occupied cells and filter against q.
	for k, agg := range t.cells {
		inside := true
		for d := range grid {
			g := k / t.strides[d] % t.counts[d]
			if g < lo[d] || g > hi[d] {
				inside = false
				break
			}
			grid[d] = g
		}
		if inside {
			fn(grid, agg)
		}
	}
}

// Query merges the cells covering q (which must satisfy def.Covers) and
// reports how many occupied cells contributed.
func (t *Table) Query(q keys.Rect) (core.Aggregate, int) {
	agg := core.NewAggregate()
	n := 0
	t.mu.Lock()
	t.scan(q, func(_ []uint64, cell core.Aggregate) {
		agg.Merge(cell)
		n++
	})
	t.mu.Unlock()
	return agg, n
}

// GroupBy folds the cells covering q into one aggregate per value of
// dimension dim at the hierarchy level spanning groupSpan leaves
// (def.Depths[dim] must be at least that level's depth, so every cell
// falls entirely inside one group). Keys of the result are absolute
// level-value ordinals. Returns the groups and the cells merged.
func (t *Table) GroupBy(q keys.Rect, dim int, groupSpan uint64, out map[uint64]core.Aggregate) int {
	n := 0
	t.mu.Lock()
	t.scan(q, func(grid []uint64, cell core.Aggregate) {
		core.MergeGroup(out, grid[dim]*t.spans[dim]/groupSpan, cell)
		n++
	})
	t.mu.Unlock()
	return n
}

// Encode serializes the table (definition + occupied cells).
func (t *Table) Encode(w *wire.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.def.Encode(w)
	w.Uvarint(uint64(len(t.cells)))
	for k, agg := range t.cells {
		w.Uvarint(k)
		agg.Encode(w)
	}
}

// DecodeTable reads a table serialized by Encode.
func DecodeTable(r *wire.Reader, s *hierarchy.Schema) (*Table, error) {
	def, err := DecodeDef(r)
	if err != nil {
		return nil, err
	}
	if err := def.Validate(s); err != nil {
		return nil, err
	}
	t := NewTable(s, def)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// A cell takes at least 1 key byte + 26 aggregate bytes.
	if n > uint64(r.Remaining())/27+1 {
		return nil, fmt.Errorf("rollup: table claims %d cells, buffer too small", n)
	}
	for i := uint64(0); i < n; i++ {
		k := r.Uvarint()
		agg, err := core.DecodeAggregate(r)
		if err != nil {
			return nil, err
		}
		t.cells[k] = agg
	}
	return t, r.Err()
}

// Set is all of one shard's rollup tables, one per configured
// definition, in configuration order. A nil *Set is a valid empty set:
// every method treats it as "no rollups configured".
type Set struct {
	tables []*Table
}

// NewSet builds empty tables for the given definitions; nil when there
// are none.
func NewSet(s *hierarchy.Schema, defs []Def) *Set {
	if len(defs) == 0 {
		return nil
	}
	set := &Set{tables: make([]*Table, len(defs))}
	for i, def := range defs {
		set.tables[i] = NewTable(s, def)
	}
	return set
}

// Rebuild builds a set and folds in every item the iterator yields —
// the O(n) fallback when incremental state is unavailable (promotion of
// a standby, recovery from a pre-rollup snapshot).
func Rebuild(s *hierarchy.Schema, defs []Def, items func(func(core.Item) bool)) *Set {
	set := NewSet(s, defs)
	if set == nil {
		return nil
	}
	items(func(it core.Item) bool {
		for _, t := range set.tables {
			t.AddItem(it.Coords, it.Measure)
		}
		return true
	})
	return set
}

// Add folds a batch into every table.
func (set *Set) Add(items []core.Item) {
	if set == nil {
		return
	}
	for _, t := range set.tables {
		t.Add(items)
	}
}

// Table returns table i, or nil when the set or index does not have it.
func (set *Set) Table(i int) *Table {
	if set == nil || i < 0 || i >= len(set.tables) {
		return nil
	}
	return set.tables[i]
}

// Cells returns the total occupied cells across all tables.
func (set *Set) Cells() int {
	if set == nil {
		return 0
	}
	n := 0
	for _, t := range set.tables {
		n += t.Cells()
	}
	return n
}

// trailerMagic guards rollup trailers appended to serialized shards.
const trailerMagic = "VOLAPROLL1"

// EncodeTrailer serializes the set as a trailer suitable for appending
// after a core store blob (core.DeserializeStore ignores trailing
// bytes, so composite blobs remain readable by rollup-unaware code).
// A nil set encodes to nil.
func (set *Set) EncodeTrailer() []byte {
	if set == nil {
		return nil
	}
	w := wire.NewWriter(64)
	w.String(trailerMagic)
	w.Uvarint(uint64(len(set.tables)))
	for _, t := range set.tables {
		t.Encode(w)
	}
	return w.Bytes()
}

// DecodeTrailer reads a trailer written by EncodeTrailer and checks it
// against the configured definitions. It returns (nil, nil) when the
// bytes are empty or carry no rollup magic, and an error when a trailer
// is present but unusable (corrupt, or its definitions no longer match
// the configuration) — callers rebuild from raw items in every nil
// case.
func DecodeTrailer(b []byte, s *hierarchy.Schema, defs []Def) (*Set, error) {
	if len(b) == 0 || len(defs) == 0 {
		return nil, nil
	}
	r := wire.NewReader(b)
	if r.String() != trailerMagic || r.Err() != nil {
		return nil, nil
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n != uint64(len(defs)) {
		return nil, fmt.Errorf("rollup: trailer has %d tables, configuration has %d definitions", n, len(defs))
	}
	set := &Set{tables: make([]*Table, 0, n)}
	for i := uint64(0); i < n; i++ {
		t, err := DecodeTable(r, s)
		if err != nil {
			return nil, err
		}
		if !t.def.Equal(defs[i]) {
			return nil, fmt.Errorf("rollup: trailer table %d definition %v no longer matches configuration %v", i, t.def, defs[i])
		}
		set.tables = append(set.tables, t)
	}
	return set, nil
}
