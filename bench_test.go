package volap_test

// One testing.B benchmark per paper figure/table (plus the §IV-C bulk
// ingestion claim). These are the micro-benchmark companions of the full
// drivers in internal/bench and cmd/volap-bench: each measures the hot
// operation underlying its figure so `go test -bench=.` gives a quick
// per-operation profile, while `volap-bench <figN>` regenerates the
// figure's full table.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	volap "repro"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/pbs"
	"repro/internal/rtree"
	"repro/internal/tpcds"
)

// --- shared fixtures -------------------------------------------------------

var (
	fixOnce    sync.Once
	fixHilbert core.Store
	fixPDC     core.Store
	fixBins    tpcds.BinnedQueries
	fixItems   []core.Item
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		schema := tpcds.Schema()
		gen := tpcds.NewGenerator(schema, 42, 1.1)
		fixItems = gen.Items(30000)
		fixHilbert, _ = core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC})
		_ = fixHilbert.BulkLoad(fixItems)
		fixPDC, _ = core.NewStore(core.Config{Schema: schema, Store: core.StorePDC})
		for _, it := range fixItems {
			_ = fixPDC.Insert(it)
		}
		count := func(q keys.Rect) uint64 { return fixHilbert.Query(q).Count }
		fixBins = gen.GenerateBinned(count, fixHilbert.Count(), 10, 4000)
	})
}

// --- Figure 4: Hilbert PDC vs PDC query latency ---------------------------

func benchQueryBand(b *testing.B, st core.Store, band tpcds.Band) {
	fixtures(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Query(fixBins.Pick(rng, band))
	}
}

func BenchmarkFig4HilbertPDCQueryLow(b *testing.B) {
	fixtures(b)
	benchQueryBand(b, fixHilbert, tpcds.Low)
}
func BenchmarkFig4HilbertPDCQueryMed(b *testing.B) {
	fixtures(b)
	benchQueryBand(b, fixHilbert, tpcds.Medium)
}
func BenchmarkFig4HilbertPDCQueryHigh(b *testing.B) {
	fixtures(b)
	benchQueryBand(b, fixHilbert, tpcds.High)
}
func BenchmarkFig4PDCQueryLow(b *testing.B)  { fixtures(b); benchQueryBand(b, fixPDC, tpcds.Low) }
func BenchmarkFig4PDCQueryMed(b *testing.B)  { fixtures(b); benchQueryBand(b, fixPDC, tpcds.Medium) }
func BenchmarkFig4PDCQueryHigh(b *testing.B) { fixtures(b); benchQueryBand(b, fixPDC, tpcds.High) }

// --- Figure 5: insert latency by variant at 16 dimensions ------------------

func fig5Schema() (*volap.Schema, []core.Item) {
	schema := tpcds.SyntheticSchema(16, 2, 8)
	gen := tpcds.NewGenerator(schema, 7, 1.0)
	return schema, gen.Items(4096)
}

func BenchmarkFig5InsertRTree16d(b *testing.B) {
	schema, items := fig5Schema()
	t, _ := rtree.New(rtree.Config{Schema: schema, Kind: rtree.Classic})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Insert(items[i%len(items)])
	}
}

func BenchmarkFig5InsertHilbertRTree16d(b *testing.B) {
	schema, items := fig5Schema()
	t, _ := rtree.New(rtree.Config{Schema: schema, Kind: rtree.HilbertRT})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Insert(items[i%len(items)])
	}
}

func BenchmarkFig5InsertPDC16d(b *testing.B) {
	schema, items := fig5Schema()
	st, _ := core.NewStore(core.Config{Schema: schema, Store: core.StorePDC})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Insert(items[i%len(items)])
	}
}

func BenchmarkFig5InsertHilbertPDC16d(b *testing.B) {
	schema, items := fig5Schema()
	st, _ := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Insert(items[i%len(items)])
	}
}

// --- Figure 6: load balancing primitive (serialize+split) ------------------

func BenchmarkFig6ShardSplit(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := fixHilbert.SplitQuery()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fixHilbert.Split(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ShardSerialize(b *testing.B) {
	fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := fixHilbert.Serialize()
		if i == 0 {
			b.SetBytes(int64(len(blob)))
		}
	}
}

// --- Figures 7 and 8: distributed insert and query path --------------------

var (
	clusterOnce sync.Once
	benchClus   *volap.Cluster
	benchClient *volap.Client
	benchGen    *tpcds.Generator
	benchBins   tpcds.BinnedQueries
)

func cluster(b *testing.B) {
	b.Helper()
	clusterOnce.Do(func() {
		opts := volap.DefaultOptions(tpcds.Schema())
		opts.Workers = 4
		opts.Servers = 2
		opts.SyncInterval = 200 * time.Millisecond
		opts.BalanceInterval = -1
		c, err := volap.Start(opts)
		if err != nil {
			panic(err)
		}
		benchClus = c
		benchClient, err = c.Client()
		if err != nil {
			panic(err)
		}
		benchGen = tpcds.NewGenerator(tpcds.Schema(), 42, 1.1)
		if err := benchClient.BulkLoadNoCtx(benchGen.Items(20000)); err != nil {
			panic(err)
		}
		count := func(q volap.Rect) uint64 {
			res, err := benchClient.QueryNoCtx(q)
			if err != nil {
				return 0
			}
			return res.Agg.Count
		}
		total, _ := benchClient.QueryNoCtx(volap.AllRect(benchClus.Schema()))
		benchBins = benchGen.GenerateBinned(count, total.Agg.Count, 10, 3000)
	})
}

func BenchmarkFig7ClusterInsert(b *testing.B) {
	cluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchClient.InsertNoCtx(benchGen.Item()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ClusterQueryLow(b *testing.B)  { benchClusterQuery(b, tpcds.Low) }
func BenchmarkFig7ClusterQueryMed(b *testing.B)  { benchClusterQuery(b, tpcds.Medium) }
func BenchmarkFig7ClusterQueryHigh(b *testing.B) { benchClusterQuery(b, tpcds.High) }

func benchClusterQuery(b *testing.B, band tpcds.Band) {
	cluster(b)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchClient.QueryNoCtx(benchBins.Pick(rng, band)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Mixed50(b *testing.B) {
	cluster(b)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := benchClient.InsertNoCtx(benchGen.Item()); err != nil {
				b.Fatal(err)
			}
		} else {
			band := tpcds.Band(rng.Intn(3))
			if _, err := benchClient.QueryNoCtx(benchBins.Pick(rng, band)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 9: routing cost ------------------------------------------------

func BenchmarkFig9RouteQuery(b *testing.B) {
	schema := tpcds.Schema()
	idx := image.NewIndex(schema, keys.MDS, 4, 8)
	gen := tpcds.NewGenerator(schema, 5, 1.1)
	for i := 0; i < 64; i++ {
		_ = idx.AddShard(image.ShardID(i), nil)
	}
	for i := 0; i < 20000; i++ {
		if _, _, err := idx.RouteInsert(gen.Item().Coords); err != nil {
			b.Fatal(err)
		}
	}
	qs := make([]keys.Rect, 256)
	for i := range qs {
		qs[i] = gen.Query()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.RouteQuery(qs[i%len(qs)])
	}
}

// --- Figure 10: PBS simulation ----------------------------------------------

func BenchmarkFig10Simulate(b *testing.B) {
	p := pbs.Params{
		InsertRate:    50000,
		InsertLatMean: 20 * time.Millisecond,
		SyncInterval:  3 * time.Second,
		PropMean:      20 * time.Millisecond,
		PropJitter:    30 * time.Millisecond,
		ExpandProb:    1e-5,
		Coverage:      0.5,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pbs.Simulate(p, time.Second, 2000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §IV-C: bulk ingestion ---------------------------------------------------

func BenchmarkBulkLoadTree(b *testing.B) {
	fixtures(b)
	schema := tpcds.Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC})
		if err := st.BulkLoad(fixItems); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(fixItems)))
}

func BenchmarkPointInsertTree(b *testing.B) {
	schema := tpcds.Schema()
	st, _ := core.NewStore(core.Config{Schema: schema, Store: core.StoreHilbertPDC})
	gen := tpcds.NewGenerator(schema, 9, 1.1)
	items := gen.Items(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Insert(items[i%len(items)]); err != nil {
			b.Fatal(err)
		}
	}
}
