package worker

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/netmsg"
	"repro/internal/wire"
)

var inprocSeq int

func testConfig(tb testing.TB) *image.ClusterConfig {
	tb.Helper()
	schema := hierarchy.MustSchema(
		hierarchy.MustDimension("A",
			hierarchy.Level{Name: "L1", Fanout: 10},
			hierarchy.Level{Name: "L2", Fanout: 10}),
		hierarchy.MustDimension("B",
			hierarchy.Level{Name: "L1", Fanout: 40}),
	)
	return &image.ClusterConfig{
		Schema: schema,
		Store:  core.StoreHilbertPDC,
		Keys:   keys.MDS,
		MDSCap: 4, LeafCapacity: 32, DirCapacity: 8,
	}
}

func startWorker(tb testing.TB, id string) (*Worker, *netmsg.Client) {
	tb.Helper()
	inprocSeq++
	w := New(id, testConfig(tb))
	addr, err := w.Listen(fmt.Sprintf("inproc://wtest-%s-%d", id, inprocSeq))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	c, err := netmsg.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return w, c
}

func randItems(rng *rand.Rand, cfg *image.ClusterConfig, n int) []core.Item {
	items := make([]core.Item, n)
	for i := range items {
		items[i] = core.Item{
			Coords:  []uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))},
			Measure: 1,
		}
	}
	return items
}

func TestCreateInsertQueryRPC(t *testing.T) {
	w, c := startWorker(t, "w1")
	cfg := w.cfg
	if _, err := c.Request("worker.createshard", EncodeInsertRequest(1, 0, nil)[:1]); err != nil {
		t.Fatal(err)
	}
	// Duplicate create fails.
	if _, err := c.Request("worker.createshard", EncodeInsertRequest(1, 0, nil)[:1]); err == nil {
		t.Fatal("duplicate create should fail")
	}
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, cfg, 500)
	if _, err := c.Request("worker.insert", EncodeInsertRequest(1, 2, items)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Request("worker.query", EncodeQueryRequest(keys.AllRect(cfg.Schema), []image.ShardID{1}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DecodeQueryReply(resp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agg.Count != 500 || rep.ShardsSearched != 1 {
		t.Fatalf("query = %v searched %d", rep.Agg, rep.ShardsSearched)
	}
	// Unknown shard in a query is skipped, not an error.
	resp, err = c.Request("worker.query", EncodeQueryRequest(keys.AllRect(cfg.Schema), []image.ShardID{1, 99}))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ = DecodeQueryReply(resp)
	if rep.ShardsSearched != 1 {
		t.Errorf("unknown shard searched = %d", rep.ShardsSearched)
	}
	// Insert to an unknown shard is an error.
	if err := w.Insert(context.Background(), 42, items[:1]); err == nil {
		t.Error("insert to unknown shard should fail")
	}
	if n := w.ShardCount(1); n != 500 {
		t.Errorf("ShardCount = %d", n)
	}
	if n := w.ShardCount(77); n != 0 {
		t.Errorf("ShardCount of unknown = %d", n)
	}
}

func TestBulkLoadRPC(t *testing.T) {
	w, c := startWorker(t, "wb")
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	items := randItems(rng, w.cfg, 2000)
	if _, err := c.Request("worker.bulkload", EncodeInsertRequest(1, 2, items)); err != nil {
		t.Fatal(err)
	}
	if n := w.ShardCount(1); n != 2000 {
		t.Fatalf("count after bulk = %d", n)
	}
}

// TestHostileRequests: read payloads no server encoder produces — a
// shard list claiming 2^62 IDs in a few bytes, a rectangle with fewer
// dimensions than the schema — are rejected with an error. Handlers run
// without recover, so a panic here used to take the whole worker down.
func TestHostileRequests(t *testing.T) {
	w, _ := startWorker(t, "wh")
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(context.Background(), 1, randItems(rand.New(rand.NewSource(1)), w.cfg, 20)); err != nil {
		t.Fatal(err)
	}
	hostileCount := func(params func(*wire.Writer)) []byte {
		b := wire.NewWriter(32)
		keys.AllRect(w.cfg.Schema).Encode(b)
		params(b)
		b.Uvarint(1 << 62)
		return b.Bytes()
	}
	oneDim := keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 99})
	shard := []image.ShardID{1}
	for _, tc := range []struct {
		name    string
		handle  netmsg.Handler
		payload []byte
	}{
		{"worker.query count", w.handleQuery, hostileCount(func(*wire.Writer) {})},
		{"worker.groupby count", w.handleGroupBy, hostileCount(func(b *wire.Writer) { b.Uvarint(0); b.Uvarint(0) })}, // dim, level
		{"worker.query rect", w.handleQuery, EncodeQueryRequest(oneDim, shard)},
		{"worker.groupby rect", w.handleGroupBy, EncodeGroupByRequest(oneDim, 1, 0, shard, -1)},
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
}

func TestMeta(t *testing.T) {
	w, _ := startWorker(t, "wm")
	w.CreateShard(1)
	w.CreateShard(2)
	rng := rand.New(rand.NewSource(3))
	w.Insert(context.Background(), 1, randItems(rng, w.cfg, 100))
	m := w.Meta()
	if m.ID != "wm" || m.Shards != 2 || m.Items != 100 || m.MemBytes == 0 {
		t.Fatalf("meta = %+v", m)
	}
	if m.Addr == "" || m.UpdatedMs == 0 {
		t.Error("meta missing addr/timestamp")
	}
}

func TestStatsPublication(t *testing.T) {
	w, _ := startWorker(t, "ws")
	w.CreateShard(1)
	var mu sync.Mutex
	var got []*image.WorkerMeta
	w.StartStats(func(m *image.WorkerMeta) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, 10*time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	w.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("stats published %d times", len(got))
	}
}

func TestSplitShard(t *testing.T) {
	w, c := startWorker(t, "wsp")
	w.CreateShard(1)
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, w.cfg, 3000)
	if err := w.Insert(context.Background(), 1, items); err != nil {
		t.Fatal(err)
	}
	// Plan via RPC.
	if _, err := c.Request("worker.splitquery", EncodeSplitRequest(1, 0)[:1]); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Request("worker.splitshard", EncodeSplitRequest(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeSplitResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftCount+res.RightCount != 3000 {
		t.Fatalf("split lost items: %d + %d", res.LeftCount, res.RightCount)
	}
	if res.LeftCount == 0 || res.RightCount == 0 {
		t.Fatal("degenerate split")
	}
	if w.ShardCount(1) != res.LeftCount || w.ShardCount(2) != res.RightCount {
		t.Error("hosted counts do not match split result")
	}
	// Together the halves answer like the original.
	agg1, ok, _ := w.QueryShard(context.Background(), 1, keys.AllRect(w.cfg.Schema))
	agg2, ok2, _ := w.QueryShard(context.Background(), 2, keys.AllRect(w.cfg.Schema))
	if !ok || !ok2 || agg1.Count+agg2.Count != 3000 {
		t.Fatalf("halves query %d + %d", agg1.Count, agg2.Count)
	}
	// Splitting into an existing ID fails.
	if _, err := w.SplitShard(1, 2); err == nil {
		t.Error("split into existing ID should fail")
	}
	if _, err := w.SplitShard(42, 43); err == nil {
		t.Error("split of unknown shard should fail")
	}
}

// TestSplitUnderLoad splits while writers keep inserting; conservation
// must hold afterwards.
func TestSplitUnderLoad(t *testing.T) {
	w, _ := startWorker(t, "wsl")
	w.CreateShard(1)
	rng := rand.New(rand.NewSource(7))
	if err := w.Insert(context.Background(), 1, randItems(rng, w.cfg, 2000)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var inserted sync.Map
	total := 2000
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			n := 0
			for i := 0; i < 500; i++ {
				if err := w.Insert(context.Background(), 1, randItems(r, w.cfg, 1)); err != nil {
					t.Error(err)
					return
				}
				n++
			}
			inserted.Store(seed, n)
		}(int64(g + 10))
	}
	res, err := w.SplitShard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	wg.Wait()
	inserted.Range(func(_, v any) bool {
		total += v.(int)
		return true
	})
	got := w.ShardCount(1) + w.ShardCount(2)
	if got != uint64(total) {
		t.Fatalf("after split under load: %d items, want %d", got, total)
	}
}

// TestMigration ships a shard to another worker, with writers running,
// and checks conservation and forwarding.
func TestMigration(t *testing.T) {
	src, _ := startWorker(t, "wsrc")
	dst, _ := startWorker(t, "wdst")
	src.CreateShard(1)
	rng := rand.New(rand.NewSource(9))
	if err := src.Insert(context.Background(), 1, randItems(rng, src.cfg, 2000)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	extra := 0
	var extraMu sync.Mutex
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := src.Insert(context.Background(), 1, randItems(r, src.cfg, 1)); err != nil {
				t.Error(err)
				return
			}
			extraMu.Lock()
			extra++
			extraMu.Unlock()
		}
	}()
	time.Sleep(10 * time.Millisecond)

	shipped, err := src.SendShard(1, dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped < 2000 {
		t.Fatalf("shipped only %d", shipped)
	}
	close(stop)
	wg.Wait()

	extraMu.Lock()
	want := uint64(2000 + extra)
	extraMu.Unlock()

	// Queries against the source forward to the destination; counts
	// converge once the writer stops.
	deadline := time.Now().Add(3 * time.Second)
	for {
		agg, ok, err := src.QueryShard(context.Background(), 1, keys.AllRect(src.cfg.Schema))
		if err != nil {
			t.Fatal(err)
		}
		if ok && agg.Count == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forwarded query = %v (ok=%v), want %d", agg, ok, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dst.ShardCount(1) != want {
		t.Fatalf("destination has %d items, want %d", dst.ShardCount(1), want)
	}
	// Inserts to the source keep working via forwarding.
	if err := src.Insert(context.Background(), 1, randItems(rng, src.cfg, 5)); err != nil {
		t.Fatal(err)
	}
	if dst.ShardCount(1) != want+5 {
		t.Fatalf("forwarded inserts missing: %d", dst.ShardCount(1))
	}
	// Source reports zero local items for the shard now.
	if src.Meta().Items != 0 {
		t.Errorf("source still reports %d items", src.Meta().Items)
	}
}

func TestSendShardErrors(t *testing.T) {
	w, _ := startWorker(t, "wse")
	if _, err := w.SendShard(9, "inproc://nowhere"); err == nil {
		t.Error("sending unknown shard should fail")
	}
	w.CreateShard(1)
	rng := rand.New(rand.NewSource(13))
	w.Insert(context.Background(), 1, randItems(rng, w.cfg, 10))
	if _, err := w.SendShard(1, "inproc://nowhere"); err == nil {
		t.Error("sending to unreachable worker should fail")
	}
	// Shard still fully usable after the rollback.
	if n := w.ShardCount(1); n != 10 {
		t.Fatalf("after rollback count = %d", n)
	}
	if err := w.Insert(context.Background(), 1, randItems(rng, w.cfg, 3)); err != nil {
		t.Fatal(err)
	}
	if n := w.ShardCount(1); n != 13 {
		t.Fatalf("after rollback insert count = %d", n)
	}
}

// TestReceiveShardErrors checks schema guarding and double-hosting.
func TestReceiveShardErrors(t *testing.T) {
	a, _ := startWorker(t, "wra")
	b, _ := startWorker(t, "wrb")
	a.CreateShard(1)
	rng := rand.New(rand.NewSource(15))
	a.Insert(context.Background(), 1, randItems(rng, a.cfg, 50))
	if _, err := a.SendShard(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	// Re-sending the same shard: source no longer hosts it.
	if _, err := a.SendShard(1, b.Addr()); err == nil {
		t.Error("re-sending a migrated shard should fail")
	}
	// Receiving garbage fails.
	c, err := netmsg.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := wire.NewWriter(16)
	w.Uvarint(9)
	w.Bytes1([]byte("garbage"))
	if _, err := c.Request("worker.receiveshard", w.Bytes()); err == nil {
		t.Error("garbage shard blob should fail")
	}
	// Receiving a shard ID that is already hosted fails.
	blob := func() []byte {
		st, _ := core.NewStore(b.cfg.StoreConfig())
		_ = st.BulkLoad(randItems(rng, b.cfg, 10))
		return st.Serialize()
	}()
	w = wire.NewWriter(len(blob) + 8)
	w.Uvarint(1) // b hosts shard 1 now
	w.Bytes1(blob)
	if _, err := c.Request("worker.receiveshard", w.Bytes()); err == nil {
		t.Error("double-hosting should fail")
	}
}

// TestShardCounts checks the manager-facing per-shard statistics RPC.
func TestShardCounts(t *testing.T) {
	w, c := startWorker(t, "wsc")
	w.CreateShard(1)
	w.CreateShard(2)
	rng := rand.New(rand.NewSource(16))
	w.Insert(context.Background(), 1, randItems(rng, w.cfg, 30))
	w.Insert(context.Background(), 2, randItems(rng, w.cfg, 70))
	resp, err := c.Request("worker.shardcounts", nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := DecodeShardCounts(resp)
	if err != nil {
		t.Fatal(err)
	}
	if counts[1] != 30 || counts[2] != 70 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPing(t *testing.T) {
	_, c := startWorker(t, "wping")
	resp, err := c.Request("worker.ping", nil)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("ping = %q %v", resp, err)
	}
}

// TestTraceForwardPropagation checks that a traced insert against a
// migrated-away shard records the trace ID on both the forwarding worker
// (with a forward event) and the destination worker.
func TestTraceForwardPropagation(t *testing.T) {
	src, _ := startWorker(t, "wtfsrc")
	dst, _ := startWorker(t, "wtfdst")
	src.CreateShard(1)
	rng := rand.New(rand.NewSource(21))
	if err := src.Insert(context.Background(), 1, randItems(rng, src.cfg, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SendShard(1, dst.Addr()); err != nil {
		t.Fatal(err)
	}

	ctx, traceID := netmsg.EnsureTraceID(context.Background())
	if err := src.Insert(ctx, 1, randItems(rng, src.cfg, 5)); err != nil {
		t.Fatal(err)
	}
	forwarded := false
	for _, ev := range src.Trace().For(traceID) {
		if ev.Op == "worker.insert.forward" {
			forwarded = true
		}
	}
	if !forwarded {
		t.Errorf("source trace has no forward event: %+v", src.Trace().For(traceID))
	}
	if !dst.Trace().Has(traceID) {
		t.Errorf("destination trace is missing trace %d: %+v", traceID, dst.Trace().Events())
	}

	// The traced query path forwards the same way.
	qctx, qID := netmsg.EnsureTraceID(context.Background())
	if _, _, err := src.QueryShard(qctx, 1, keys.AllRect(src.cfg.Schema)); err != nil {
		t.Fatal(err)
	}
	if !dst.Trace().Has(qID) {
		t.Errorf("destination trace is missing query trace %d", qID)
	}
}
