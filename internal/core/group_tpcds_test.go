package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// tpcdsStore bulk-loads n TPC-DS items (seed 1, skew 1.1) into a Hilbert
// PDC store with MDS keys and default capacities: one shard of the
// benchmark's 65 536-item preload over 8 shards at n = 8 192.
func tpcdsStore(tb testing.TB, n int) core.Store {
	tb.Helper()
	schema := tpcds.Schema()
	s, err := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.BulkLoad(tpcds.NewGenerator(schema, 1, 1.1).Items(n)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestGroupQueryCountedWork pins the one-pass group-by's work on an
// 8 192-item TPC-DS store: grouping the whole space by dimension 0 or 1
// at level 0 (18 countries) visits at least 8× fewer nodes than one
// clipped query per country, and scans each item at most once.
func TestGroupQueryCountedWork(t *testing.T) {
	s := tpcdsStore(t, 8192)
	schema := s.Config().Schema
	all := keys.AllRect(schema)
	for _, dim := range []int{0, 1} {
		span := schema.Dim(dim).LeavesUnder(1)
		want, got := map[uint64]core.Aggregate{}, map[uint64]core.Aggregate{}
		ref := core.RefGroupQuery(s, all, dim, span, want)
		st := s.GroupQuery(all, dim, span, got)
		t.Logf("dim %d: nodes visited %d (reference %d, %.1f×), items scanned %d (reference %d)",
			dim, st.NodesVisited, ref.NodesVisited, float64(ref.NodesVisited)/float64(st.NodesVisited),
			st.ItemsScanned, ref.ItemsScanned)
		if st.NodesVisited*8 > ref.NodesVisited {
			t.Errorf("dim %d: %d nodes visited, want at most 1/8 of the reference's %d", dim, st.NodesVisited, ref.NodesVisited)
		}
		if st.ItemsScanned > int(s.Count()) {
			t.Errorf("dim %d: %d items scanned, store holds %d", dim, st.ItemsScanned, s.Count())
		}
		if len(got) != len(want) {
			t.Errorf("dim %d: %d groups, reference %d", dim, len(got), len(want))
		}
	}
}

// BenchmarkGroupQuery times one whole-space group-by of dimension 0 at
// level 0 on TPC-DS stores of 8 192 and 32 768 items: the per-value
// reference (one clipped query per country) against the one-pass
// GroupQuery.
func BenchmarkGroupQuery(b *testing.B) {
	for _, n := range []int{8192, 32768} {
		s := tpcdsStore(b, n)
		all := keys.AllRect(s.Config().Schema)
		span := s.Config().Schema.Dim(0).LeavesUnder(1)
		for _, m := range []struct {
			name string
			run  func(core.Store, keys.Rect, int, uint64, map[uint64]core.Aggregate) core.QueryStats
		}{
			{"reference", core.RefGroupQuery},
			{"onepass", core.Store.GroupQuery},
		} {
			b.Run(fmt.Sprintf("items=%d/%s", n, m.name), func(b *testing.B) {
				var st core.QueryStats
				for i := 0; i < b.N; i++ {
					st = m.run(s, all, 0, span, map[uint64]core.Aggregate{})
				}
				b.ReportMetric(float64(st.NodesVisited), "nodes/op")
				b.ReportMetric(float64(st.ItemsScanned), "items/op")
			})
		}
	}
}
