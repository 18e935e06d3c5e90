package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// tpcdsBands bins the benchmark's candidate rectangles (shape seed 2016,
// 4 096 attempts, at most 256 per band) by their true coverage of s.
func tpcdsBands(s core.Store) tpcds.BinnedQueries {
	return tpcds.NewGenerator(s.Config().Schema, 2016, 1.1).GenerateBinned(
		func(q keys.Rect) uint64 { return s.Query(q).Count }, s.Count(), 256, 4096)
}

// TestLeafScanCountedWork pins the columns a leaf scan tests on an
// 8 192-item TPC-DS store: a medium-band query cuts at most 2 of the 8
// dimensions inside a scanned leaf on average, a low-band query at most
// 4; every other column is skipped because the leaf's key lies inside
// the query's interval there.
func TestLeafScanCountedWork(t *testing.T) {
	s := tpcdsStore(t, 8192)
	bands := tpcdsBands(s)
	for _, c := range []struct {
		band tpcds.Band
		max  float64
	}{{tpcds.Low, 4}, {tpcds.Medium, 2}} {
		var st core.QueryStats
		for _, q := range bands.Rects[c.band] {
			_, qs := s.QueryWithStats(q)
			st.LeavesScanned += qs.LeavesScanned
			st.ColumnsTested += qs.ColumnsTested
		}
		if st.LeavesScanned == 0 {
			t.Fatalf("%v band (%d queries) scans no leaf", c.band, len(bands.Rects[c.band]))
		}
		per := float64(st.ColumnsTested) / float64(st.LeavesScanned)
		t.Logf("%v band: %d queries, %d leaves scanned, %.2f columns tested per leaf",
			c.band, len(bands.Rects[c.band]), st.LeavesScanned, per)
		if per > c.max {
			t.Errorf("%v band: %.2f columns tested per scanned leaf, want at most %.0f", c.band, per, c.max)
		}
	}
}

// TestSerializeGoldenTPCDS pins the bytes Serialize writes for the
// 8 192-item TPC-DS store (default capacities, 8 dimensions) to the hash
// taken before leaves became column blocks.
func TestSerializeGoldenTPCDS(t *testing.T) {
	sum := sha256.Sum256(tpcdsStore(t, 8192).Serialize())
	if got, want := hex.EncodeToString(sum[:8]), "ebf2696f5160d86b"; got != want {
		t.Errorf("Serialize hash %s, want %s", got, want)
	}
}

// TestQueryAllocs requires a steady-state QueryWithStats on the
// 8 192-item TPC-DS store to allocate nothing in every band: the
// descent keeps children and match masks on the stack.
func TestQueryAllocs(t *testing.T) {
	s := tpcdsStore(t, 8192)
	bands := tpcdsBands(s)
	for b, rects := range bands.Rects {
		if allocs := testing.AllocsPerRun(20, func() {
			for _, q := range rects {
				s.QueryWithStats(q)
			}
		}); allocs != 0 {
			t.Errorf("%v band: %.1f allocations per %d queries", tpcds.Band(b), allocs, len(rects))
		}
	}
}

// BenchmarkLeafScan times one low- or medium-band query on TPC-DS stores
// of 8 192 and 32 768 items, cycling through the band's rectangles, and
// reports the leaves scanned and the columns tested per leaf.
func BenchmarkLeafScan(b *testing.B) {
	for _, n := range []int{8192, 32768} {
		s := tpcdsStore(b, n)
		bands := tpcdsBands(s)
		for _, band := range []tpcds.Band{tpcds.Low, tpcds.Medium} {
			rects := bands.Rects[band]
			b.Run(fmt.Sprintf("items=%d/%v", n, band), func(b *testing.B) {
				var st core.QueryStats
				for i := 0; i < b.N; i++ {
					_, qs := s.QueryWithStats(rects[i%len(rects)])
					st.LeavesScanned += qs.LeavesScanned
					st.ColumnsTested += qs.ColumnsTested
				}
				b.ReportMetric(float64(st.LeavesScanned)/float64(b.N), "leaves/op")
				if st.LeavesScanned > 0 {
					b.ReportMetric(float64(st.ColumnsTested)/float64(st.LeavesScanned), "columns/leaf")
				}
			})
		}
	}
}
