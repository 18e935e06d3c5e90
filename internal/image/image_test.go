package image

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/tpcds"
	"repro/internal/wire"
)

func testSchema(tb testing.TB) *hierarchy.Schema {
	tb.Helper()
	return hierarchy.MustSchema(
		hierarchy.MustDimension("A",
			hierarchy.Level{Name: "L1", Fanout: 10},
			hierarchy.Level{Name: "L2", Fanout: 10}),
		hierarchy.MustDimension("B",
			hierarchy.Level{Name: "L1", Fanout: 40}),
	)
}

func TestShardPathRoundTrip(t *testing.T) {
	p := ShardPath(42)
	if p != "/volap/shards/42" {
		t.Fatalf("ShardPath = %q", p)
	}
	id, ok := ParseShardPath(p)
	if !ok || id != 42 {
		t.Fatalf("ParseShardPath = %d %v", id, ok)
	}
	for _, bad := range []string{"/volap/shards", "/volap/shards/", "/volap/shards/abc", "/volap/workers/1"} {
		if _, ok := ParseShardPath(bad); ok {
			t.Errorf("ParseShardPath(%q) should fail", bad)
		}
	}
	if ShardID(7).String() != "7" {
		t.Error("ShardID.String wrong")
	}
	if WorkerPath("w1") != "/volap/workers/w1" || ServerPath("s1") != "/volap/servers/s1" {
		t.Error("paths wrong")
	}
}

func TestShardMetaRoundTrip(t *testing.T) {
	k := keys.NewPoint(keys.MDS, 4, []uint64{3, 7})
	k.ExtendPoint([]uint64{9, 1})
	m := &ShardMeta{ID: 5, Worker: "w2", Key: k, Count: 123}
	got, err := DecodeShardMetaBytes(m.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 5 || got.Worker != "w2" || got.Count != 123 || !got.Key.Equal(k) {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, err := DecodeShardMetaBytes([]byte{1}); err == nil {
		t.Error("truncated meta should fail")
	}
}

func TestWorkerServerMetaRoundTrip(t *testing.T) {
	w := &WorkerMeta{ID: "w1", Addr: "inproc://w1", Shards: 3, Items: 1000, MemBytes: 1 << 20, UpdatedMs: 1234567}
	got, err := DecodeWorkerMetaBytes(w.EncodeBytes())
	if err != nil || *got != *w {
		t.Fatalf("worker roundtrip = %+v, %v", got, err)
	}
	s := &ServerMeta{ID: "s1", Addr: "inproc://s1"}
	gs, err := DecodeServerMetaBytes(s.EncodeBytes())
	if err != nil || *gs != *s {
		t.Fatalf("server roundtrip = %+v, %v", gs, err)
	}
	if _, err := DecodeWorkerMetaBytes(nil); err == nil {
		t.Error("empty worker meta should fail")
	}
}

func TestClusterConfigRoundTrip(t *testing.T) {
	c := &ClusterConfig{
		Schema: testSchema(t),
		Store:  core.StoreHilbertPDC,
		Keys:   keys.MDS,
		MDSCap: 4, LeafCapacity: 32, DirCapacity: 8,
	}
	got, err := DecodeClusterConfigBytes(c.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Store != c.Store || got.Keys != c.Keys || got.LeafCapacity != 32 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if got.Schema.Fingerprint() != c.Schema.Fingerprint() {
		t.Error("schema changed")
	}
	sc := got.StoreConfig()
	if sc.Store != c.Store || sc.Schema == nil {
		t.Error("StoreConfig wrong")
	}
	if _, err := DecodeClusterConfigBytes([]byte{1, 2}); err == nil {
		t.Error("truncated config should fail")
	}
	// Corrupt the fingerprint.
	b := c.EncodeBytes()
	b[len(b)-1] ^= 0xFF
	if _, err := DecodeClusterConfigBytes(b); err == nil {
		t.Error("corrupt fingerprint should fail")
	}
}

func newTestIndex(tb testing.TB, shards int) *Index {
	tb.Helper()
	s := testSchema(tb)
	idx := NewIndex(s, keys.MDS, 4, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < shards; i++ {
		k := keys.NewPoint(keys.MDS, 4, []uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))})
		k.ExtendPoint([]uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))})
		if err := idx.AddShard(ShardID(i), k); err != nil {
			tb.Fatal(err)
		}
	}
	return idx
}

func TestIndexAddShard(t *testing.T) {
	idx := newTestIndex(t, 20)
	if idx.NumShards() != 20 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	if err := idx.AddShard(3, nil); err == nil {
		t.Error("duplicate shard should fail")
	}
	if !idx.Has(7) || idx.Has(99) {
		t.Error("Has wrong")
	}
	if got := len(idx.Shards()); got != 20 {
		t.Errorf("Shards() = %d", got)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteInsertEmpty(t *testing.T) {
	idx := NewIndex(testSchema(t), keys.MDS, 4, 4)
	if _, _, err := idx.RouteInsert([]uint64{1, 2}); err != ErrNoShards {
		t.Fatalf("err = %v", err)
	}
}

// TestRouteInsertAndQuery routes random inserts and checks every inserted
// point is found by a query covering it.
func TestRouteInsertAndQuery(t *testing.T) {
	idx := newTestIndex(t, 12)
	rng := rand.New(rand.NewSource(3))
	type placed struct {
		coords []uint64
		shard  ShardID
	}
	var pts []placed
	for i := 0; i < 2000; i++ {
		coords := []uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))}
		id, _, err := idx.RouteInsert(coords)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, placed{coords, id})
	}
	// A point query covering a placed coordinate must route to (at least)
	// the shard that received it.
	for _, p := range pts[:200] {
		q := keys.NewRect(
			hierarchy.Interval{Lo: p.coords[0], Hi: p.coords[0]},
			hierarchy.Interval{Lo: p.coords[1], Hi: p.coords[1]},
		)
		got := idx.RouteQuery(q)
		found := false
		for _, id := range got {
			if id == p.shard {
				found = true
			}
		}
		if !found {
			t.Fatalf("query for %v missed shard %d (got %v)", p.coords, p.shard, got)
		}
	}
	// The all-query touches every shard that received an insert.
	all := idx.RouteQuery(keys.AllRect(testSchema(t)))
	if len(all) == 0 {
		t.Fatal("all-query found nothing")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExpandLeaf applies a remote expansion and checks queries route to
// the expanded shard afterwards.
func TestExpandLeaf(t *testing.T) {
	s := testSchema(t)
	idx := NewIndex(s, keys.MDS, 4, 4)
	for i := 0; i < 8; i++ {
		k := keys.NewPoint(keys.MDS, 4, []uint64{uint64(i * 10), 5})
		if err := idx.AddShard(ShardID(i), k); err != nil {
			t.Fatal(err)
		}
	}
	// Remote insert grew shard 3 to cover (99, 39).
	grown := keys.NewPoint(keys.MDS, 4, []uint64{30, 5})
	grown.ExtendPoint([]uint64{99, 39})
	if !idx.ExpandLeaf(3, grown, 555) {
		t.Fatal("ExpandLeaf failed")
	}
	if idx.ExpandLeaf(99, grown, 1) {
		t.Error("ExpandLeaf of unknown shard should report false")
	}
	q := keys.NewRect(hierarchy.Interval{Lo: 99, Hi: 99}, hierarchy.Interval{Lo: 39, Hi: 39})
	got := idx.RouteQuery(q)
	found := false
	for _, id := range got {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query after expansion missed shard 3: %v", got)
	}
	k, count, ok := idx.LeafSnapshot(3)
	if !ok || count != 555 || !k.ContainsPoint([]uint64{99, 39}) {
		t.Fatalf("LeafSnapshot = %v %d %v", k, count, ok)
	}
	if _, _, ok := idx.LeafSnapshot(99); ok {
		t.Error("snapshot of unknown shard should fail")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexConcurrency mixes routing inserts from four goroutines,
// routing queries, shard additions, and expansions under -race. Every
// choice of a child also checks each cached score factor against the
// children's current keys, so a key change the cache missed fails here.
func TestIndexConcurrency(t *testing.T) {
	s := tpcds.Schema()
	idx := NewIndex(s, keys.MDS, 4, 4)
	var failOnce sync.Once
	idx.chooser = checkScores(idx, func(err error) {
		failOnce.Do(func() { t.Error(err) })
	})
	for i := 0; i < 4; i++ {
		if err := idx.AddShard(ShardID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	const routers, perRouter = 4, 3000
	type placed struct {
		coords []uint64
		shard  ShardID
	}
	routed := make([][]placed, routers)
	var wg sync.WaitGroup
	for g := 0; g < routers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := tpcds.NewGenerator(s, int64(g+1), 1.1)
			for i := 0; i < perRouter; i++ {
				coords := gen.Item().Coords
				id, _, err := idx.RouteInsert(coords)
				if err != nil {
					t.Error(err)
					return
				}
				routed[g] = append(routed[g], placed{coords, id})
			}
		}(g)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		gen := tpcds.NewGenerator(s, 98, 1.1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			idx.RouteQuery(gen.Query())
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := tpcds.NewGenerator(s, 99, 1.1)
		for i := 4; i < 24; i++ {
			if err := idx.AddShard(ShardID(i), keys.NewPoint(keys.MDS, 4, gen.Item().Coords)); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 4; j++ {
				idx.ExpandLeaf(ShardID((i*7+j)%i), keys.NewPoint(keys.MDS, 4, gen.Item().Coords), uint64(i))
			}
		}
	}()

	wg.Wait()
	close(stop)
	qwg.Wait()
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if idx.NumShards() != 24 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	for _, ps := range routed {
		for _, p := range ps {
			k, _, ok := idx.LeafSnapshot(p.shard)
			if !ok || !k.ContainsPoint(p.coords) {
				t.Fatalf("point %v routed to shard %d lies outside its key %v", p.coords, p.shard, k)
			}
		}
	}
}

func TestWireHelpers(t *testing.T) {
	// Cover the wire.Uint64s helper used by several packages.
	w := wire.NewWriter(16)
	w.Uint64s([]uint64{1, 500, 1 << 40})
	got := wire.NewReader(w.Bytes()).Uint64s()
	if len(got) != 3 || got[2] != 1<<40 {
		t.Fatalf("Uint64s roundtrip = %v", got)
	}
}
