package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// shapeConfigs are the TPC-DS tree variants the split tests cover: MDS
// keys with caps 1, 4 and 8, MBR keys, Hilbert and geometric (PDC)
// ordering, and both split policies.
func shapeConfigs() map[string]core.Config {
	schema := tpcds.Schema()
	return map[string]core.Config{
		"hilbert-mds4":        {Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS},
		"hilbert-mds1":        {Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS, MDSCap: 1},
		"hilbert-mds8":        {Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS, MDSCap: 8},
		"hilbert-mbr":         {Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MBR},
		"hilbert-mds4-median": {Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS, SplitPolicy: core.SplitMedian},
		"pdc-mds4":            {Schema: schema, Store: core.StorePDC, Keys: keys.MDS},
		"pdc-mbr":             {Schema: schema, Store: core.StorePDC, Keys: keys.MBR},
	}
}

// growTPCDS builds a tree of n TPC-DS items (seed 7, skew 1.1) the way a
// worker grows a shard: the first half by single inserts, the rest by
// BulkLoad batches of 2 048 items, which a non-empty tree sorts by
// Hilbert index and inserts one by one.
func growTPCDS(tb testing.TB, cfg core.Config, n int) core.Store {
	tb.Helper()
	s, err := core.NewStore(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	items := tpcds.NewGenerator(cfg.Schema, 7, 1.1).Items(n)
	for _, it := range items[:n/2] {
		if err := s.Insert(it); err != nil {
			tb.Fatal(err)
		}
	}
	for off := n / 2; off < n; off += 2048 {
		if err := s.BulkLoad(items[off:min(off+2048, n)]); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// shapeGolden holds core.ShapeHash of growTPCDS's trees, 32 768 items
// for Hilbert ordering and 8 192 for geometric, taken while splits still
// built one key per element. A split that falls one position off changes
// the hash.
var shapeGolden = map[string]string{
	"hilbert-mds4":        "210ccd8bdb5a3cab",
	"hilbert-mds1":        "b56ac4318776c07c",
	"hilbert-mds8":        "649c59a47ce9e497",
	"hilbert-mbr":         "d83aa61f0a0fce8d",
	"hilbert-mds4-median": "9a955ea0dfc82171",
	"pdc-mds4":            "2ba6cd63287740ea",
	"pdc-mbr":             "237c6fdf4837ac37",
}

// TestSplitShapeGolden pins the structure of trees grown by splits.
func TestSplitShapeGolden(t *testing.T) {
	for name, cfg := range shapeConfigs() {
		n := 32768
		if cfg.Store == core.StorePDC {
			n = 8192
		}
		got := core.ShapeHash(growTPCDS(t, cfg, n))
		if want := shapeGolden[name]; got != want {
			t.Errorf("%s: shape hash %s, want %s", name, got, want)
		}
	}
}

// TestSplitPosEquivalence requires the allocation-free split scan to
// choose the clone-based reference's position on every leaf block and
// every directory of 8 192-item TPC-DS trees, for every variant.
func TestSplitPosEquivalence(t *testing.T) {
	for name, cfg := range shapeConfigs() {
		leaves, dirs, bad := core.SplitPosMismatches(growTPCDS(t, cfg, 8192))
		if leaves == 0 || dirs == 0 {
			t.Fatalf("%s: %d leaves and %d directories checked", name, leaves, dirs)
		}
		for _, b := range bad {
			t.Errorf("%s: %s", name, b)
		}
	}
}

// TestSplitAllocs requires a steady-state split scan, over a full leaf
// and over a directory, to allocate nothing.
func TestSplitAllocs(t *testing.T) {
	for name, cfg := range shapeConfigs() {
		leaf, dir := core.SplitPosAllocs(growTPCDS(t, cfg, 4096))
		if leaf != 0 || dir != 0 {
			t.Errorf("%s: %.1f allocations per leaf scan, %.1f per directory scan", name, leaf, dir)
		}
	}
}

// BenchmarkDrainInsert times what a worker's drain does: BulkLoad of
// 2 048-item batches, which the tree sorts by Hilbert index and inserts
// one by one, into a 65 536-item TPC-DS store grown by such batches, so
// its leaves are as full as a drain leaves them. It reports the leaf and
// directory splits per 1 000 items (a root split counts as a directory
// split).
func BenchmarkDrainInsert(b *testing.B) {
	const batch = 2048
	schema := tpcds.Schema()
	gen := tpcds.NewGenerator(schema, 11, 1.1)
	s, err := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS})
	if err != nil {
		b.Fatal(err)
	}
	for s.Count() < 65536 {
		if err := s.BulkLoad(gen.Items(batch)); err != nil {
			b.Fatal(err)
		}
	}
	leaves0, dirs0 := core.TreeNodes(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		items := gen.Items(batch)
		b.StartTimer()
		if err := s.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	leaves, dirs := core.TreeNodes(s)
	items := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
	b.ReportMetric(float64(leaves-leaves0)*1000/items, "leafsplits/1kitems")
	b.ReportMetric(float64(dirs-dirs0)*1000/items, "dirsplits/1kitems")
}
