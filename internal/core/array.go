package core

import (
	"sync"

	"repro/internal/keys"
)

// arrayStore is the simple array shard store (§III-D): a flat slice with
// linear-scan queries, kept as a correctness and performance baseline.
type arrayStore struct {
	cfg Config

	mu    sync.RWMutex
	items []Item
	key   *keys.Key
	agg   Aggregate
}

var _ Store = (*arrayStore)(nil)

func newArrayStore(cfg Config) *arrayStore {
	return &arrayStore{
		cfg: cfg,
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
	a.items = append(a.items, it)
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
		a.items = append(a.items, it)
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
	st := QueryStats{NodesVisited: 1, LeavesScanned: 1, ItemsScanned: len(a.items)}
	if a.key.CoveredByRect(q) {
		st.CoveredNodes = 1
		st.ItemsScanned = 0
		agg.Merge(a.agg)
		return agg, st
	}
	for _, it := range a.items {
		if q.ContainsPoint(it.Coords) {
			agg.AddItem(it.Measure)
		}
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
		st.LeavesScanned = 1
		st.ItemsScanned = len(a.items)
		g.addItems(a.items, inBase)
	}
	g.flush(out)
	return st
}

func (a *arrayStore) Count() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return uint64(len(a.items))
}

func (a *arrayStore) Key() *keys.Key {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.key.Clone()
}

func (a *arrayStore) Items(fn func(Item) bool) {
	a.mu.RLock()
	snapshot := make([]Item, len(a.items))
	copy(snapshot, a.items)
	a.mu.RUnlock()
	for _, it := range snapshot {
		if !fn(it) {
			return
		}
	}
}

func (a *arrayStore) SplitQuery() (Hyperplane, error) {
	a.mu.RLock()
	n := len(a.items)
	if n < 2 {
		a.mu.RUnlock()
		return Hyperplane{}, errSplitTooSmall
	}
	const sampleCap = 4096
	stride := n/sampleCap + 1
	sample := make([][]uint64, 0, sampleCap)
	for i := 0; i < n; i += stride {
		sample = append(sample, a.items[i].Coords)
	}
	k := a.key.Clone()
	a.mu.RUnlock()
	return planHyperplane(k, sample, a.cfg), nil
}

func (a *arrayStore) Split(h Hyperplane) (Store, Store, error) {
	return splitStore(a, h)
}

func (a *arrayStore) Serialize() []byte { return serializeStore(a) }

func (a *arrayStore) MemoryBytes() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	dims := uint64(a.cfg.Schema.NumDims())
	return uint64(len(a.items)) * (dims*8 + 32)
}
