package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/manager"
	"repro/internal/netmsg"
	"repro/internal/wire"
	"repro/internal/worker"
)

var seq int

// harness is a miniature cluster: a coordination store, two workers with
// registered shards, and helpers to boot servers against them.
type harness struct {
	t       *testing.T
	store   *coord.Store
	cfg     *image.ClusterConfig
	workers []*worker.Worker
}

func newHarness(t *testing.T, workers, shardsPerWorker int) *harness {
	t.Helper()
	seq++
	schema := hierarchy.MustSchema(
		hierarchy.MustDimension("A",
			hierarchy.Level{Name: "L1", Fanout: 10},
			hierarchy.Level{Name: "L2", Fanout: 10}),
		hierarchy.MustDimension("B",
			hierarchy.Level{Name: "L1", Fanout: 40}),
	)
	h := &harness{
		t:     t,
		store: coord.NewStore(),
		cfg: &image.ClusterConfig{
			Schema: schema, Store: core.StoreHilbertPDC, Keys: keys.MDS,
			MDSCap: 4, LeafCapacity: 32, DirCapacity: 8,
		},
	}
	if _, err := h.store.Create(image.PathConfig, h.cfg.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	next := image.ShardID(0)
	for wi := 0; wi < workers; wi++ {
		id := fmt.Sprintf("w%d", wi)
		w := worker.New(id, h.cfg)
		addr, err := w.Listen(fmt.Sprintf("inproc://srvtest%d-%s", seq, id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		meta := &image.WorkerMeta{ID: id, Addr: addr, UpdatedMs: time.Now().UnixMilli()}
		if _, err := h.store.CreateOrSet(image.WorkerPath(id), meta.EncodeBytes()); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shardsPerWorker; s++ {
			if err := w.CreateShard(next); err != nil {
				t.Fatal(err)
			}
			sm := &image.ShardMeta{ID: next, Worker: id, Key: keys.NewEmpty(keys.MDS, 2, 4)}
			if _, err := h.store.CreateOrSet(image.ShardPath(next), sm.EncodeBytes()); err != nil {
				t.Fatal(err)
			}
			next++
		}
		h.workers = append(h.workers, w)
	}
	t.Cleanup(h.store.Close)
	return h
}

func (h *harness) server(id string, sync time.Duration) *Server {
	h.t.Helper()
	s, err := New(Options{ID: id, Coord: h.store, SyncInterval: sync})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(s.Close)
	return s
}

func randItem(rng *rand.Rand) core.Item {
	return core.Item{Coords: []uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))}, Measure: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing coordinator should fail")
	}
	st := coord.NewStore()
	defer st.Close()
	if _, err := New(Options{ID: "s", Coord: st}); err == nil {
		t.Error("missing cluster config should fail")
	}
}

// TestCloseIsPrompt requires a one-server Close to return in under
// 50 ms: closing stops the image watcher's long poll instead of waiting
// out its 500 ms window.
func TestCloseIsPrompt(t *testing.T) {
	h := newHarness(t, 1, 2)
	s, err := New(Options{ID: "s0", Coord: h.store, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the watcher's poll block
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("Close took %v, want under 50ms", d)
	}
}

func TestInsertAndQueryDirect(t *testing.T) {
	h := newHarness(t, 2, 2)
	s := h.server("s0", time.Hour)
	if s.NumShards() != 4 {
		t.Fatalf("image has %d shards", s.NumShards())
	}
	rng := rand.New(rand.NewSource(1))
	var ref []core.Item
	for i := 0; i < 1500; i++ {
		it := randItem(rng)
		ref = append(ref, it)
		if err := s.Insert(context.Background(), it); err != nil {
			t.Fatal(err)
		}
	}
	agg, info, err := s.Query(context.Background(), keys.AllRect(h.cfg.Schema), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 1500 {
		t.Fatalf("count = %d", agg.Count)
	}
	if info.ShardsConsidered == 0 || info.WorkersContacted == 0 {
		t.Errorf("info = %+v", info)
	}
	// Partial query against brute force.
	q := keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 49}, hierarchy.Interval{Lo: 0, Hi: 19})
	agg, _, err = s.Query(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, it := range ref {
		if q.ContainsPoint(it.Coords) {
			want++
		}
	}
	if agg.Count != want {
		t.Fatalf("partial = %d, want %d", agg.Count, want)
	}
	// Invalid point is rejected before routing.
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{1}}); err == nil {
		t.Error("short point should fail")
	}
}

// TestSyncPropagation checks that one server's local expansions reach
// another server through the coordination service (the §III-B cycle:
// local image -> global image -> watch -> remote local image).
func TestSyncPropagation(t *testing.T) {
	h := newHarness(t, 2, 2)
	a := h.server("sa", time.Hour) // manual sync only
	b := h.server("sb", time.Hour)

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		if err := a.Insert(context.Background(), randItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Before sync, b's image has empty boxes: queries find nothing.
	agg, _, err := b.Query(context.Background(), keys.AllRect(h.cfg.Schema), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 {
		t.Logf("b saw %d items before sync (possible but unexpected)", agg.Count)
	}
	a.SyncNow()
	deadline := time.Now().Add(3 * time.Second)
	for {
		agg, _, err := b.Query(context.Background(), keys.AllRect(h.cfg.Schema), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if agg.Count == 300 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b stuck at %d", agg.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pushes, events := a.SyncStats()
	if pushes == 0 {
		t.Error("a pushed nothing")
	}
	_, bEvents := b.SyncStats()
	if bEvents == 0 {
		t.Error("b saw no watch events")
	}
	_ = events
}

// TestConcurrentSyncMerge has two servers expand the same shard
// concurrently; the CAS merge loop must preserve both expansions.
func TestConcurrentSyncMerge(t *testing.T) {
	h := newHarness(t, 1, 1)
	a := h.server("sa", time.Hour)
	b := h.server("sb", time.Hour)

	// Server a inserts in one corner, server b in the opposite corner.
	if err := a.Insert(context.Background(), core.Item{Coords: []uint64{0, 0}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(context.Background(), core.Item{Coords: []uint64{99, 39}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	a.SyncNow()
	b.SyncNow()
	raw, _, err := h.store.Get(image.ShardPath(0))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := image.DecodeShardMetaBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Key.ContainsPoint([]uint64{0, 0}) || !meta.Key.ContainsPoint([]uint64{99, 39}) {
		t.Fatalf("global key lost an expansion: %v", meta.Key)
	}
}

// TestNewShardViaWatch verifies a server picks up shards created after it
// started (the manager's split path).
func TestNewShardViaWatch(t *testing.T) {
	h := newHarness(t, 1, 1)
	s := h.server("s0", time.Hour)
	if s.NumShards() != 1 {
		t.Fatal("expected 1 shard at start")
	}
	// Register a second shard on the same worker directly.
	if err := h.workers[0].CreateShard(7); err != nil {
		t.Fatal(err)
	}
	sm := &image.ShardMeta{ID: 7, Worker: "w0", Key: keys.NewEmpty(keys.MDS, 2, 4)}
	if _, err := h.store.CreateOrSet(image.ShardPath(7), sm.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.NumShards() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server never saw new shard (has %d)", s.NumShards())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRPCSurface exercises the netmsg handlers.
func TestRPCSurface(t *testing.T) {
	h := newHarness(t, 1, 2)
	s := h.server("s0", time.Hour)
	addr, err := s.Listen(fmt.Sprintf("inproc://srvtest-rpc-%d", seq))
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr || s.ID() != "s0" {
		t.Error("accessors wrong")
	}
	// The server registered itself in the global image.
	raw, _, err := h.store.Get(image.ServerPath("s0"))
	if err != nil {
		t.Fatal(err)
	}
	if sm, err := image.DecodeServerMetaBytes(raw); err != nil || sm.Addr != addr {
		t.Fatalf("server meta = %+v %v", sm, err)
	}

	c, err := netmsg.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	items := make([]core.Item, 200)
	for i := range items {
		items[i] = randItem(rng)
	}
	if _, err := c.Request("server.insert", EncodeItems(2, items[:100])); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("server.bulkload", EncodeItems(2, items[100:])); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Request("server.query", newTestRectPayload(keys.AllRect(h.cfg.Schema)))
	if err != nil {
		t.Fatal(err)
	}
	agg, info, err := DecodeQueryResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 200 || info.ShardsSearched == 0 {
		t.Fatalf("rpc query = %v %+v", agg, info)
	}
	if _, err := c.Request("server.sync", nil); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Request("server.ping", nil); err != nil || string(resp) != "pong" {
		t.Fatalf("ping = %q %v", resp, err)
	}
	if _, err := c.Request("server.stats", nil); err != nil {
		t.Fatal(err)
	}
	// Malformed payloads return errors, not panics.
	if _, err := c.Request("server.query", []byte{0xFF}); err == nil {
		t.Error("malformed query should fail")
	}
}

// TestHostileRequests: payloads no client encoder produces — an item
// count claiming 2^62 items in a few bytes, a rectangle with fewer
// dimensions than the schema — are rejected with an error. Handlers run
// without recover, so a panic here used to take the whole server down.
func TestHostileRequests(t *testing.T) {
	h := newHarness(t, 1, 1)
	s := h.server("s0", time.Hour)
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{5, 5}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	count := wire.NewWriter(16)
	count.Uvarint(1 << 62)
	oneDim := keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 99})
	inverted := keys.NewRect(hierarchy.Interval{Lo: 50, Hi: 10}, hierarchy.Interval{Lo: 0, Hi: 39})
	pastEnd := keys.NewRect(hierarchy.Interval{Lo: 100, Hi: 1 << 20}, hierarchy.Interval{Lo: 0, Hi: 39})
	for _, tc := range []struct {
		name    string
		handle  netmsg.Handler
		payload []byte
	}{
		{"server.insert count", s.handleInsert, count.Bytes()},
		{"server.bulkload count", s.handleBulkLoad, count.Bytes()},
		{"server.query rect", s.handleQuery, EncodeQueryRequest(oneDim, QueryOptions{})},
		{"server.groupby rect", s.handleGroupBy, EncodeGroupByRequest(oneDim, 1, 0)},
		{"server.groupby lo>hi", s.handleGroupBy, EncodeGroupByRequest(inverted, 0, 0)},
		{"server.groupby lo past last leaf", s.handleGroupBy, EncodeGroupByRequest(pastEnd, 0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := tc.handle(context.Background(), tc.payload); err == nil {
				t.Fatalf("accepted a %d-byte hostile payload", len(tc.payload))
			}
		})
	}
	// A grouped interval running far past the dimension's leaves is
	// clamped: one group per level value, not one per Hi/span.
	resp, err := s.handleGroupBy(context.Background(), EncodeGroupByRequest(
		keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 1 << 20}, hierarchy.Interval{Lo: 0, Hi: 39}), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := DecodeGroupByResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("clamped group-by: %d groups, want 10", len(groups))
	}
	if groups[0].Agg.Count != 1 {
		t.Fatalf("clamped group-by: group 0 = %v, want the one inserted item", groups[0].Agg)
	}
}

func newTestRectPayload(q keys.Rect) []byte {
	w := wire.NewWriter(64)
	q.Encode(w)
	return w.Bytes()
}

// TestWorkerFailure checks the server surfaces clean errors (not hangs or
// panics) when a worker disappears, and keeps serving what remains.
func TestWorkerFailure(t *testing.T) {
	h := newHarness(t, 2, 1)
	s := h.server("s0", time.Hour)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if err := s.Insert(context.Background(), randItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill worker 0.
	h.workers[0].Close()
	// Queries that need the dead worker fail with an error.
	failed := false
	for i := 0; i < 20; i++ {
		if _, _, err := s.Query(context.Background(), keys.AllRect(h.cfg.Schema), QueryOptions{}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Skip("all data happened to land on the surviving worker")
	}
	// Inserts routed to the dead worker also fail cleanly.
	sawErr := false
	for i := 0; i < 50; i++ {
		if err := s.Insert(context.Background(), randItem(rng)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Log("all inserts routed to the surviving worker")
	}
}

// TestGroupByDirect checks the server-side GroupBy math.
func TestGroupByDirect(t *testing.T) {
	h := newHarness(t, 1, 2)
	s := h.server("s0", time.Hour)
	// Insert one item per level-0 value of dimension 0 (fanout 10,
	// 10 leaves each).
	for v := uint64(0); v < 10; v++ {
		if err := s.Insert(context.Background(), core.Item{Coords: []uint64{v * 10, 0}, Measure: float64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	groups, _, err := s.GroupBy(context.Background(), keys.AllRect(h.cfg.Schema), 0, 0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d", len(groups))
	}
	for i, g := range groups {
		if g.Value != uint64(i) || g.Agg.Count != 1 || g.Agg.Sum != float64(i) {
			t.Fatalf("group %d = %+v", i, g)
		}
	}
	// Restricted base region clips groups.
	base := keys.AllRect(h.cfg.Schema)
	base.Ivs[0] = hierarchy.Interval{Lo: 25, Hi: 74} // values 2..7 (clipped)
	groups, _, err = s.GroupBy(context.Background(), base, 0, 0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 6 {
		t.Fatalf("clipped groups = %d", len(groups))
	}
	if _, _, err := s.GroupBy(context.Background(), base, -1, 0, QueryOptions{}); err == nil {
		t.Error("negative dim should fail")
	}
	if _, _, err := s.GroupBy(context.Background(), base, 0, 5, QueryOptions{}); err == nil {
		t.Error("deep level should fail")
	}
}

// TestManagerDrivenSplitVisibleToServer wires manager + server: a split
// on the worker must propagate into the server image.
func TestManagerDrivenSplitVisibleToServer(t *testing.T) {
	h := newHarness(t, 2, 1)
	s := h.server("s0", time.Hour)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		if err := s.Insert(context.Background(), randItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s.SyncNow()
	m, err := manager.New(manager.Options{Coord: h.store, Ratio: 1.1, MinMoveItems: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for pass := 0; pass < 10; pass++ {
		if _, err := m.RunPass(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Splits+st.Migrations == 0 {
		t.Fatal("manager did nothing")
	}
	// The query still returns everything once the image converges.
	deadline := time.Now().Add(5 * time.Second)
	for {
		agg, _, err := s.Query(context.Background(), keys.AllRect(h.cfg.Schema), QueryOptions{})
		if err == nil && agg.Count == 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query after balancing: %v %v", agg, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEmptyImageUnavailable requires reads on a server whose image
// holds no shards to fail with ErrUnavailable instead of answering an
// empty database, while a read that misses every shard key of a
// non-empty image still answers empty.
func TestEmptyImageUnavailable(t *testing.T) {
	eh := newHarness(t, 0, 0)
	empty := eh.server("s0", time.Hour)
	all := keys.AllRect(eh.cfg.Schema)
	if agg, info, err := empty.Query(context.Background(), all, QueryOptions{}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("query on an empty image: %v, %+v, err %v; want ErrUnavailable", agg, info, err)
	}
	if groups, _, err := empty.GroupBy(context.Background(), all, 0, 0, QueryOptions{}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("group-by on an empty image: %d groups, err %v; want ErrUnavailable", len(groups), err)
	}

	h := newHarness(t, 1, 2)
	s := h.server("s1", time.Hour)
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{5, 5}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	miss := keys.NewRect(hierarchy.Interval{Lo: 90, Hi: 99}, hierarchy.Interval{Lo: 30, Hi: 39})
	agg, info, err := s.Query(context.Background(), miss, QueryOptions{})
	if err != nil || agg.Count != 0 || info.ShardsConsidered != 0 {
		t.Errorf("query missing every shard key: %v, %+v, err %v; want an empty answer", agg, info, err)
	}
	groups, _, err := s.GroupBy(context.Background(), miss, 0, 0, QueryOptions{})
	if err != nil || len(groups) != 1 || groups[0].Agg.Count != 0 {
		t.Errorf("group-by missing every shard key: %+v, err %v; want one empty group", groups, err)
	}
}
