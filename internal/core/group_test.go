package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// RefGroupQuery is the per-value reference for GroupQuery: one
// QueryWithStats over base clipped to each group inside base's interval
// on dim, merging every non-empty answer into out. Its stats are the
// sum over those queries.
func RefGroupQuery(s Store, base keys.Rect, dim int, span uint64, out map[uint64]Aggregate) QueryStats {
	var total QueryStats
	iv := base.Ivs[dim]
	clip := keys.Rect{Ivs: append([]hierarchy.Interval(nil), base.Ivs...)}
	for v := iv.Lo / span; v <= iv.Hi/span; v++ {
		clip.Ivs[dim] = hierarchy.Interval{Lo: max(iv.Lo, v*span), Hi: min(iv.Hi, v*span+span-1)}
		agg, st := s.QueryWithStats(clip)
		total.NodesVisited += st.NodesVisited
		total.CoveredNodes += st.CoveredNodes
		total.LeavesScanned += st.LeavesScanned
		total.ItemsScanned += st.ItemsScanned
		if agg.Count > 0 {
			MergeGroup(out, v, agg)
		}
	}
	return total
}

// groupBases returns the bases a group-by of dim is checked on: the
// whole space, clipped mid-group on dim, clipped on another dimension,
// both, and random rectangles (intervals at random depths everywhere).
func groupBases(rng *rand.Rand, s *hierarchy.Schema, dim int, span uint64) []keys.Rect {
	all := func() keys.Rect { return keys.AllRect(s) }
	n := s.Dim(dim).LeafCount()
	onDim := hierarchy.Interval{Lo: n/4 + span/2, Hi: n - 1 - n/8 - span/3}
	other := (dim + 1) % s.NumDims()
	otherIv := randRect(rng, s).Ivs[other]
	if otherIv == all().Ivs[other] {
		otherIv.Hi /= 2
	}
	clipped, clippedOther, both := all(), all(), all()
	clipped.Ivs[dim] = onDim
	clippedOther.Ivs[other] = otherIv
	both.Ivs[dim], both.Ivs[other] = onDim, otherIv
	out := []keys.Rect{all(), clipped, clippedOther, both}
	for i := 0; i < 3; i++ {
		out = append(out, randRect(rng, s))
	}
	return out
}

// TestGroupQueryEquivalence requires the one-pass GroupQuery to equal
// the per-value reference exactly — Count, Sum, Min and Max with == —
// on every store variant, three seeds, every dimension and level, and
// bases clipped on the grouped dimension and on another one.
func TestGroupQueryEquivalence(t *testing.T) {
	for name, cfg := range allConfigs(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				s, err := NewStore(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				items := make([]Item, 2000)
				for i := range items {
					items[i] = randItem(rng, cfg.Schema)
				}
				// Half packed bottom-up, half by descent: both shapes.
				if err := s.BulkLoad(items[:1000]); err != nil {
					t.Fatal(err)
				}
				for _, it := range items[1000:] {
					if err := s.Insert(it); err != nil {
						t.Fatal(err)
					}
				}
				for dim := 0; dim < cfg.Schema.NumDims(); dim++ {
					d := cfg.Schema.Dim(dim)
					for level := 0; level < d.Depth(); level++ {
						span := d.LeavesUnder(level + 1)
						for _, base := range groupBases(rng, cfg.Schema, dim, span) {
							// A pre-existing entry checks that both merge into out.
							seeded := Aggregate{Count: 1, Sum: 0.1, Min: 0.1, Max: 0.1}
							want := map[uint64]Aggregate{base.Ivs[dim].Lo / span: seeded}
							got := map[uint64]Aggregate{base.Ivs[dim].Lo / span: seeded}
							RefGroupQuery(s, base, dim, span, want)
							st := s.GroupQuery(base, dim, span, got)
							if len(got) != len(want) {
								t.Fatalf("dim %d level %d base %v: %d groups, reference %d", dim, level, base, len(got), len(want))
							}
							for v, w := range want {
								if got[v] != w {
									t.Fatalf("dim %d level %d base %v group %d: %v, reference %v", dim, level, base, v, got[v], w)
								}
							}
							if st.ItemsScanned > int(s.Count()) {
								t.Fatalf("dim %d level %d: scanned %d items of %d", dim, level, st.ItemsScanned, s.Count())
							}
						}
					}
				}
			})
		}
	}
}

// TestGroupQueryConcurrentInserts runs GroupQuery beside writers on
// every store variant (run with -race): a whole-space group-by's total
// never shrinks, and at quiescence every group's count and (integral)
// sum equal the inserted items'.
func TestGroupQueryConcurrentInserts(t *testing.T) {
	for name, cfg := range allConfigs(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const (
				writers   = 4
				perWriter = 1000
			)
			all := keys.AllRect(cfg.Schema)
			span0 := cfg.Schema.Dim(0).LeavesUnder(1)
			inserted := make([][]Item, writers)
			var wWg, rWg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wWg.Add(1)
				go func(w int) {
					defer wWg.Done()
					rng := rand.New(rand.NewSource(int64(300 + w)))
					for i := 0; i < perWriter; i++ {
						it := randItem(rng, cfg.Schema)
						it.Measure = float64(rng.Intn(100)) // integral: exact float sums
						inserted[w] = append(inserted[w], Item{Coords: append([]uint64(nil), it.Coords...), Measure: it.Measure})
						if err := s.Insert(it); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				rWg.Add(1)
				go func(seed int64) {
					defer rWg.Done()
					rng := rand.New(rand.NewSource(seed))
					var prev uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						groups := make(map[uint64]Aggregate)
						s.GroupQuery(all, 0, span0, groups)
						var n uint64
						for _, a := range groups {
							n += a.Count
						}
						if n < prev || n > writers*perWriter {
							t.Errorf("group-by total %d after %d (max %d)", n, prev, writers*perWriter)
							return
						}
						prev = n
						dim := rng.Intn(cfg.Schema.NumDims())
						s.GroupQuery(randRect(rng, cfg.Schema), dim, cfg.Schema.Dim(dim).LeavesUnder(1), map[uint64]Aggregate{})
					}
				}(int64(400 + r))
			}
			wWg.Wait()
			close(stop)
			rWg.Wait()
			if t.Failed() {
				return
			}
			for dim := 0; dim < cfg.Schema.NumDims(); dim++ {
				d := cfg.Schema.Dim(dim)
				for level := 0; level < d.Depth(); level++ {
					span := d.LeavesUnder(level + 1)
					want := make(map[uint64]Aggregate)
					for _, items := range inserted {
						for _, it := range items {
							a, ok := want[it.Coords[dim]/span]
							if !ok {
								a = NewAggregate()
							}
							a.AddItem(it.Measure)
							want[it.Coords[dim]/span] = a
						}
					}
					got := make(map[uint64]Aggregate)
					s.GroupQuery(all, dim, span, got)
					if len(got) != len(want) {
						t.Fatalf("dim %d level %d: %d groups, want %d", dim, level, len(got), len(want))
					}
					for v, w := range want {
						if g := got[v]; g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max {
							t.Fatalf("dim %d level %d group %d: %v, want %v", dim, level, v, g, w)
						}
					}
				}
			}
		})
	}
}
