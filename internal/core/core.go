// Package core implements VOLAP's shard data structures (paper §III-D):
// the PDC tree, the novel Hilbert PDC tree (each in MDS- and MBR-keyed
// variants), and a simple array store for benchmarking — five stores in
// total, all behind one Store interface and sharing one multi-threaded
// tree implementation.
//
// The trees are multi-dimensional indices in the R-tree family: every
// directory node carries a bounding key enclosing its children and a
// cached aggregate of its subtree, so queries that fully cover a node stop
// there instead of descending — the mechanism behind the paper's "coverage
// resilience". The Hilbert variants insert by the item's compact Hilbert
// index (computed from ID-expanded hierarchy ordinals, Figure 3) like a
// B+-tree, avoiding geometric computations on the insert path entirely,
// and split nodes at the position that minimizes the overlap of the two
// resulting keys (§III-D).
//
// Concurrency: insertions descend with lock coupling and split full nodes
// preemptively on the way down, so they hold at most two node locks at any
// time; queries hold read locks on a small frontier (a node is released
// once its relevant children are read-locked). All lock acquisition is
// top-down, which rules out deadlock.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hierarchy"
	"repro/internal/hilbert"
	"repro/internal/keys"
	"repro/internal/wire"
)

// Item is one data record: a leaf ordinal per dimension plus a measure.
// Stores copy the coordinates on insert; the caller keeps the slice.
type Item struct {
	Coords  []uint64
	Measure float64
}

// Aggregate is the result of an aggregate query and the cached per-node
// subtree summary: COUNT, SUM, MIN, MAX over measures.
type Aggregate struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// NewAggregate returns the identity aggregate (Count 0, Min +Inf, Max -Inf).
func NewAggregate() Aggregate {
	return Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
}

// AddItem folds one measure into the aggregate.
func (a *Aggregate) AddItem(m float64) {
	a.Count++
	a.Sum += m
	if m < a.Min {
		a.Min = m
	}
	if m > a.Max {
		a.Max = m
	}
}

// Merge folds another aggregate into this one.
func (a *Aggregate) Merge(b Aggregate) {
	a.Count += b.Count
	a.Sum += b.Sum
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// MergeGroup folds a into out[v], starting from the identity aggregate
// when the group is absent.
func MergeGroup(out map[uint64]Aggregate, v uint64, a Aggregate) {
	cur, ok := out[v]
	if !ok {
		cur = NewAggregate()
	}
	cur.Merge(a)
	out[v] = cur
}

// Avg returns Sum/Count, or 0 for an empty aggregate.
func (a Aggregate) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Encode serializes the aggregate.
func (a Aggregate) Encode(w *wire.Writer) {
	w.Uvarint(a.Count)
	w.Float64(a.Sum)
	w.Float64(a.Min)
	w.Float64(a.Max)
}

// DecodeAggregate reads an aggregate serialized by Encode.
func DecodeAggregate(r *wire.Reader) (Aggregate, error) {
	a := Aggregate{Count: r.Uvarint(), Sum: r.Float64(), Min: r.Float64(), Max: r.Float64()}
	return a, r.Err()
}

// String renders the aggregate compactly.
func (a Aggregate) String() string {
	return fmt.Sprintf("{n=%d sum=%.3f min=%.3f max=%.3f}", a.Count, a.Sum, a.Min, a.Max)
}

// StoreKind selects one of the shard store families.
type StoreKind uint8

const (
	// StoreHilbertPDC is the Hilbert PDC tree: Hilbert-ordered insertion.
	// It is the zero value because it is the store the paper recommends
	// for essentially every workload (§III-D).
	StoreHilbertPDC StoreKind = iota
	// StorePDC is the PDC tree: geometric least-overlap insertion.
	StorePDC
	// StoreArray is a flat slice with linear-scan queries (benchmark baseline).
	StoreArray
)

// String names the store kind.
func (k StoreKind) String() string {
	switch k {
	case StoreArray:
		return "array"
	case StorePDC:
		return "pdc"
	case StoreHilbertPDC:
		return "hilbert-pdc"
	default:
		return fmt.Sprintf("store(%d)", uint8(k))
	}
}

// SplitPolicy selects how tree nodes choose the split position.
type SplitPolicy uint8

const (
	// SplitLeastOverlap scans all positions and picks the one whose two
	// resulting keys overlap least (the paper's algorithm).
	SplitLeastOverlap SplitPolicy = iota
	// SplitMedian always splits in the middle (ablation baseline).
	SplitMedian
)

// Config parameterizes a shard store.
type Config struct {
	Schema       *hierarchy.Schema
	Store        StoreKind
	Keys         keys.Kind
	MDSCap       int         // intervals per dimension for MDS keys (0 = default)
	LeafCapacity int         // items per leaf (0 = defaultLeafCapacity)
	DirCapacity  int         // children per directory node (0 = defaultDirCapacity)
	SplitPolicy  SplitPolicy // node split position policy
}

// Default node capacities. Read descents keep their per-node scratch
// (children, match mask) on the stack up to these sizes.
const (
	defaultLeafCapacity = 64
	defaultDirCapacity  = 16
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.LeafCapacity == 0 {
		c.LeafCapacity = defaultLeafCapacity
	}
	if c.DirCapacity == 0 {
		c.DirCapacity = defaultDirCapacity
	}
	if c.MDSCap == 0 {
		c.MDSCap = keys.DefaultMDSCap
	}
	return c
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Schema == nil {
		return errors.New("core: Config.Schema is required")
	}
	if c.LeafCapacity < 2 {
		return fmt.Errorf("core: LeafCapacity %d < 2", c.LeafCapacity)
	}
	if c.DirCapacity < 3 {
		// A root split produces a directory with two children; it must
		// not itself be full, so three is the minimum capacity.
		return fmt.Errorf("core: DirCapacity %d < 3", c.DirCapacity)
	}
	return nil
}

// ErrSplitTooSmall is returned by SplitQuery on stores with fewer than
// two items.
var ErrSplitTooSmall = errors.New("core: store too small to split")

// errSplitTooSmall aliases the exported error for internal use.
var errSplitTooSmall = ErrSplitTooSmall

// QueryStats describes the work a single query performed.
type QueryStats struct {
	NodesVisited  int // nodes whose key was examined
	CoveredNodes  int // nodes answered from the cached aggregate
	LeavesScanned int // leaves whose items were scanned
	ItemsScanned  int // items in the scanned leaves
	ColumnsTested int // leaf columns tested: dimensions a query cuts inside a scanned leaf's key
}

// Hyperplane is a shard split plan (§III-E): items with
// Coords[Dim] <= Value fall on the first side. Dim == -1 is the
// degenerate fallback used when no coordinate separates the data; the
// split then alternates items between the sides (bounding keys may
// overlap, which VOLAP permits).
type Hyperplane struct {
	Dim   int
	Value uint64
}

// Store is a shard data structure (paper §III-D and §III-E). All methods
// are safe for concurrent use.
type Store interface {
	// Insert adds one item.
	Insert(it Item) error
	// BulkLoad adds many items at once; on an empty tree store this packs
	// the structure bottom-up, the fast path behind the paper's 400k/s
	// bulk ingestion figure.
	BulkLoad(items []Item) error
	// Query aggregates all items inside the rectangle.
	Query(q keys.Rect) Aggregate
	// QueryWithStats is Query with traversal statistics.
	QueryWithStats(q keys.Rect) (Aggregate, QueryStats)
	// GroupQuery aggregates the items inside base per group of
	// dimension dim — group v holds the ordinals [v*span,
	// v*span+span-1], span >= 1 — in one pass, and merges every
	// non-empty group into out[v]. Each group's aggregate equals
	// Query over base clipped to the group, bit for bit.
	GroupQuery(base keys.Rect, dim int, span uint64, out map[uint64]Aggregate) QueryStats
	// Count returns the number of items.
	Count() uint64
	// Key returns a snapshot of the store's bounding key.
	Key() *keys.Key
	// Items streams every item; the callback returns false to stop.
	// Items inserted concurrently with the iteration may or may not be
	// observed.
	Items(fn func(Item) bool)
	// SplitQuery plans a hyperplane partitioning the store into halves of
	// approximately equal size.
	SplitQuery() (Hyperplane, error)
	// Split partitions the store's current contents into two new stores
	// separated by the hyperplane. The receiver is unchanged.
	Split(h Hyperplane) (Store, Store, error)
	// Serialize flattens the store (configuration, schema and data) into
	// a binary blob suitable for network transmission.
	Serialize() []byte
	// MemoryBytes estimates the store's memory footprint.
	MemoryBytes() uint64
	// Config returns the store's configuration.
	Config() Config
}

// NewStore builds an empty store from the configuration.
func NewStore(cfg Config) (Store, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Store {
	case StoreArray:
		return newArrayStore(cfg), nil
	case StorePDC, StoreHilbertPDC:
		return newTree(cfg)
	default:
		return nil, fmt.Errorf("core: unknown store kind %d", cfg.Store)
	}
}

// curveFor builds the compact Hilbert curve over the schema's ID-expanded
// coordinates (paper Figure 3 + §III-D).
func curveFor(s *hierarchy.Schema) (*hilbert.Curve, error) {
	return hilbert.New(s.ExpandedBits())
}
