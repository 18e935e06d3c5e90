package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// bandNames label the coverage bands of §IV: below 33 %, up to 66 %,
// above. bandOf repeats tpcds.BandOf, which this package's internal
// tests cannot import (tpcds imports core).
var bandNames = [3]string{"low", "medium", "high"}

func bandOf(frac float64) int {
	switch {
	case frac < 0.33:
		return 0
	case frac <= 0.66:
		return 1
	default:
		return 2
	}
}

// rowQuery is Query with the leaf scan leaves had before they became
// column blocks: the same descent, but every item of a scanned leaf is
// materialized as a row and tested with Rect.ContainsPoint on every
// dimension. Subtrees are read-locked top-down and released bottom-up.
func rowQuery(s Store, q keys.Rect) Aggregate {
	agg := NewAggregate()
	switch s := s.(type) {
	case *tree:
		s.anchor.RLock()
		r := s.root
		r.mu.RLock()
		s.anchor.RUnlock()
		rowQueryNode(r, q, &agg)
	case *arrayStore:
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.key.CoveredByRect(q) {
			agg.Merge(s.agg)
			return agg
		}
		rowScan(&s.blk, q, &agg)
	}
	return agg
}

// rowQueryNode aggregates the read-locked node n and releases it.
func rowQueryNode(n *node, q keys.Rect, agg *Aggregate) {
	defer n.mu.RUnlock()
	switch {
	case n.key.Empty() || !n.key.OverlapsRect(q):
	case n.key.CoveredByRect(q):
		agg.Merge(n.agg)
	case n.leaf:
		rowScan(&n.blk, q, agg)
	default:
		for _, c := range n.children {
			c.mu.RLock()
			rowQueryNode(c, q, agg)
		}
	}
}

// rowScan tests every item of b on every dimension, in item order.
func rowScan(b *block, q keys.Rect, agg *Aggregate) {
	row := make([]uint64, b.dims)
	for i := 0; i < b.n; i++ {
		b.row(i, row)
		if q.ContainsPoint(row) {
			agg.AddItem(b.meas[i])
		}
	}
}

// rowGroupQuery is the row-scan reference for GroupQuery: one rowQuery
// over base clipped to each group, as RefGroupQuery does with Query.
func rowGroupQuery(s Store, base keys.Rect, dim int, span uint64, out map[uint64]Aggregate) {
	iv := base.Ivs[dim]
	clip := keys.Rect{Ivs: append([]hierarchy.Interval(nil), base.Ivs...)}
	for v := iv.Lo / span; v <= iv.Hi/span; v++ {
		clip.Ivs[dim] = hierarchy.Interval{Lo: max(iv.Lo, v*span), Hi: min(iv.Hi, v*span+span-1)}
		if agg := rowQuery(s, clip); agg.Count > 0 {
			MergeGroup(out, v, agg)
		}
	}
}

// bandedRects returns up to perBand rectangles per coverage band of s
// (low < 33 %, medium up to 66 %, high above), drawn from random
// hierarchy rectangles and from halves of the space on one dimension.
func bandedRects(rng *rand.Rand, s Store, perBand int) [3][]keys.Rect {
	schema := s.Config().Schema
	total := float64(s.Count())
	var out [3][]keys.Rect
	add := func(r keys.Rect) {
		b := bandOf(float64(rowQuery(s, r).Count) / total)
		if len(out[b]) < perBand {
			out[b] = append(out[b], r)
		}
	}
	for d := 0; d < schema.NumDims(); d++ {
		for _, frac := range []uint64{2, 3, 4} {
			r := keys.AllRect(schema)
			r.Ivs[d].Hi = r.Ivs[d].Hi / frac
			add(r)
			r = keys.AllRect(schema)
			r.Ivs[d].Lo = r.Ivs[d].Hi / frac
			add(r)
		}
	}
	for i := 0; i < 400; i++ {
		add(randRect(rng, schema))
	}
	return out
}

// scanConfigs is allConfigs plus a Hilbert tree whose leaves span
// several mask words and outgrow the on-stack mask.
func scanConfigs(tb testing.TB) map[string]Config {
	cfgs := allConfigs(tb)
	wide := cfgs["hilbert-mds"]
	wide.LeafCapacity = 200
	cfgs["hilbert-mds-wide"] = wide
	return cfgs
}

// TestColumnScanEquivalence requires Query and GroupQuery over column
// blocks to equal the row-scan reference bit for bit — Count, Sum, Min
// and Max with == — on every store variant, three seeds, rectangles of
// every coverage band, and a group-by on every dimension and level over
// those rectangles.
func TestColumnScanEquivalence(t *testing.T) {
	for name, cfg := range scanConfigs(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				s := goldenStore(t, cfg, seed)
				rng := rand.New(rand.NewSource(seed))
				bands := bandedRects(rng, s, 12)
				for b, rects := range bands {
					if len(rects) == 0 {
						t.Fatalf("no %s rectangle", bandNames[b])
					}
					for _, q := range rects {
						if got, want := s.Query(q), rowQuery(s, q); got != want {
							t.Fatalf("%s query %v: %v, row scan %v", bandNames[b], q, got, want)
						}
					}
				}
				for dim := 0; dim < cfg.Schema.NumDims(); dim++ {
					d := cfg.Schema.Dim(dim)
					for level := 0; level < d.Depth(); level++ {
						span := d.LeavesUnder(level + 1)
						for b := range bands {
							for _, base := range bands[b][:min(3, len(bands[b]))] {
								got, want := map[uint64]Aggregate{}, map[uint64]Aggregate{}
								s.GroupQuery(base, dim, span, got)
								rowGroupQuery(s, base, dim, span, want)
								if len(got) != len(want) {
									t.Fatalf("dim %d level %d base %v: %d groups, row scan %d", dim, level, base, len(got), len(want))
								}
								for v, w := range want {
									if got[v] != w {
										t.Fatalf("dim %d level %d base %v group %d: %v, row scan %v", dim, level, base, v, got[v], w)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestColumnScanConcurrentInserts runs column scans beside writers that
// only insert outside a fixed rectangle (run with -race): the
// rectangle's count, minimum and maximum never move while leaves split
// and columns grow around it, and at quiescence every banded query
// equals the row-scan reference bit for bit.
func TestColumnScanConcurrentInserts(t *testing.T) {
	for name, cfg := range scanConfigs(t) {
		t.Run(name, func(t *testing.T) {
			s := goldenStore(t, cfg, 7)
			half := cfg.Schema.Dim(0).LeafCount() / 2
			q := keys.AllRect(cfg.Schema)
			q.Ivs[0].Hi = half - 1
			fixed := rowQuery(s, q)
			var wWg, rWg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 3; w++ {
				wWg.Add(1)
				go func(seed int64) {
					defer wWg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 1000; i++ {
						it := randItem(rng, cfg.Schema)
						it.Coords[0] = half + it.Coords[0]%half
						if err := s.Insert(it); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(100 + w))
			}
			for r := 0; r < 2; r++ {
				rWg.Add(1)
				go func(seed int64) {
					defer rWg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						if got := s.Query(q); got.Count != fixed.Count || got.Min != fixed.Min || got.Max != fixed.Max {
							t.Errorf("query %v beside inserts: %v, before %v", q, got, fixed)
							return
						}
						dim := rng.Intn(cfg.Schema.NumDims())
						s.GroupQuery(randRect(rng, cfg.Schema), dim, cfg.Schema.Dim(dim).LeavesUnder(1), map[uint64]Aggregate{})
					}
				}(int64(200 + r))
			}
			wWg.Wait()
			close(stop)
			rWg.Wait()
			if t.Failed() {
				return
			}
			bands := bandedRects(rand.New(rand.NewSource(9)), s, 12)
			for _, rects := range bands {
				for _, r := range append(rects, q) {
					if got, want := s.Query(r), rowQuery(s, r); got != want {
						t.Fatalf("query %v: %v, row scan %v", r, got, want)
					}
				}
			}
			if err := CheckInvariants(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}
