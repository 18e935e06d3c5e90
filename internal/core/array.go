package core

import (
	"sync"

	"repro/internal/keys"
)

// arrayStore is the simple array shard store (§III-D): one unbounded
// leaf block with linear-scan queries, kept as a correctness and
// performance baseline.
type arrayStore struct {
	cfg Config

	mu  sync.RWMutex
	blk block
	key *keys.Key
	agg Aggregate
}

var _ Store = (*arrayStore)(nil)

func newArrayStore(cfg Config) *arrayStore {
	return &arrayStore{
		cfg: cfg,
		blk: block{dims: cfg.Schema.NumDims()},
		key: keys.NewEmpty(cfg.Keys, cfg.Schema.NumDims(), cfg.MDSCap),
		agg: NewAggregate(),
	}
}

func (a *arrayStore) Config() Config { return a.cfg }

func (a *arrayStore) Insert(it Item) error {
	if err := a.cfg.Schema.ValidatePoint(it.Coords); err != nil {
		return err
	}
	a.mu.Lock()
	a.blk.insert(a.blk.n, it.Coords, it.Measure, 0)
	a.key.ExtendPoint(it.Coords)
	a.agg.AddItem(it.Measure)
	a.mu.Unlock()
	return nil
}

func (a *arrayStore) BulkLoad(items []Item) error {
	for i := range items {
		if err := a.cfg.Schema.ValidatePoint(items[i].Coords); err != nil {
			return err
		}
	}
	a.mu.Lock()
	for _, it := range items {
		a.blk.insert(a.blk.n, it.Coords, it.Measure, 0)
		a.key.ExtendPoint(it.Coords)
		a.agg.AddItem(it.Measure)
	}
	a.mu.Unlock()
	return nil
}

func (a *arrayStore) Query(q keys.Rect) Aggregate {
	agg, _ := a.QueryWithStats(q)
	return agg
}

func (a *arrayStore) QueryWithStats(q keys.Rect) (Aggregate, QueryStats) {
	agg := NewAggregate()
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := QueryStats{NodesVisited: 1}
	switch {
	case a.key.Empty() || !a.key.OverlapsRect(q):
	case a.key.CoveredByRect(q):
		st.CoveredNodes = 1
		agg.Merge(a.agg)
	default:
		a.blk.scan(a.key, q, &agg, &st)
	}
	return agg, st
}

// GroupQuery is one linear pass over the items, or the cached
// aggregate when the whole store lies inside base and one group.
func (a *arrayStore) GroupQuery(base keys.Rect, dim int, span uint64, out map[uint64]Aggregate) QueryStats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := QueryStats{NodesVisited: 1}
	g := newGroups(base, dim, span, a.key)
	if g == nil {
		return st
	}
	inBase := a.key.CoveredByRect(base)
	if g.covered(a.key, a.agg, inBase) {
		st.CoveredNodes = 1
	} else {
		g.addBlock(&a.blk, a.key, inBase, &st)
	}
	g.flush(out)
	return st
}

func (a *arrayStore) Count() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return uint64(a.blk.n)
}

func (a *arrayStore) Key() *keys.Key {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.key.Clone()
}

// Items streams a snapshot; its coordinates are the caller's to keep.
func (a *arrayStore) Items(fn func(Item) bool) {
	a.mu.RLock()
	snapshot := a.blk.items()
	a.mu.RUnlock()
	for _, it := range snapshot {
		if !fn(it) {
			return
		}
	}
}

// eachBlock calls fn with the store's one block under the read lock.
func (a *arrayStore) eachBlock(fn func(b *block) bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	fn(&a.blk)
}

func (a *arrayStore) SplitQuery() (Hyperplane, error) { return splitQuery(a) }

func (a *arrayStore) Split(h Hyperplane) (Store, Store, error) {
	return splitStore(a, h)
}

func (a *arrayStore) Serialize() []byte { return serializeStore(a) }

func (a *arrayStore) MemoryBytes() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	dims := uint64(a.cfg.Schema.NumDims())
	return uint64(a.blk.n) * (dims*8 + 8)
}
