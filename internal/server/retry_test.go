package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/manager"
	"repro/internal/netmsg"
	"repro/internal/worker"
)

// fakeWorkerAt registers a bare netmsg server in the coordination store
// as worker id, with the given op handlers — a stand-in worker whose
// behavior the test controls completely.
func (h *harness) fakeWorkerAt(id string, handlers map[string]netmsg.Handler) string {
	h.t.Helper()
	srv := netmsg.NewServer()
	for op, fn := range handlers {
		srv.Handle(op, fn)
	}
	seq++
	addr, err := srv.Listen(fmt.Sprintf("inproc://srvtest%d-%s", seq, id))
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(srv.Close)
	meta := &image.WorkerMeta{ID: id, Addr: addr, UpdatedMs: time.Now().UnixMilli()}
	if _, err := h.store.CreateOrSet(image.WorkerPath(id), meta.EncodeBytes()); err != nil {
		h.t.Fatal(err)
	}
	return addr
}

// setOwner force-points a shard at a worker in the server's local image
// only — simulating a stale image whose global record has moved on.
func setOwner(s *Server, id image.ShardID, workerID string) {
	s.mu.Lock()
	s.owners[id] = workerID
	s.mu.Unlock()
}

// waitOwner polls until the server's local image maps shard id to want
// (the watcher applies coordination events asynchronously).
func waitOwner(t *testing.T, s *Server, id image.ShardID, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.RLock()
		got := s.owners[id]
		s.mu.RUnlock()
		if got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("shard %d never owned by %s in local image", id, want)
}

// TestQueryWedgedWorkerTimeout: acceptance (a) — a read against a
// worker that accepts the request but never replies returns ErrTimeout
// within the configured deadline instead of hanging.
func TestQueryWedgedWorkerTimeout(t *testing.T) {
	h := newHarness(t, 1, 1)
	block := make(chan struct{})
	wedged := func(_ context.Context, p []byte) ([]byte, error) { <-block; return nil, nil }
	h.fakeWorkerAt("wedged", map[string]netmsg.Handler{"worker.query": wedged, "worker.groupby": wedged})
	// Registered after fakeWorkerAt so it runs before the netmsg server's
	// Close, which waits for in-flight handlers.
	t.Cleanup(func() { close(block) })

	s, err := New(Options{ID: "s0", Coord: h.store, SyncInterval: time.Hour,
		RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Give shard 0 a box so AllRect routes to it, then wedge its route.
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{5, 5}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	setOwner(s, 0, "wedged")

	for _, p := range readPaths {
		start := time.Now()
		_, _, err = p.read(s, keys.AllRect(h.cfg.Schema))
		elapsed := time.Since(start)
		if !errors.Is(err, netmsg.ErrTimeout) {
			t.Fatalf("%s: err = %v, want ErrTimeout", p.name, err)
		}
		if elapsed > time.Second {
			t.Fatalf("%s took %v, deadline was 150ms", p.name, elapsed)
		}
	}
}

// TestStaleImageInsertAfterMigration: acceptance (b) — after shards
// migrate away from a worker that then dies, inserts and queries routed
// through a stale image succeed transparently: the server refreshes its
// image from the coordinator and retries, and the caller never sees
// "worker: shard moved" or a transport error.
func TestStaleImageInsertAfterMigration(t *testing.T) {
	h := newHarness(t, 2, 2) // w0: shards 0,1 — w1: shards 2,3
	s := h.server("s0", time.Hour)
	rng := rand.New(rand.NewSource(7))
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Insert(context.Background(), randItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s.SyncNow() // publish grown boxes so the migrated records keep them

	mgr, err := manager.New(manager.Options{Coord: h.store, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	if _, err := mgr.DrainWorker("w0"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []image.ShardID{0, 1} {
		waitOwner(t, s, id, "w1")
	}
	// The donor dies: stale routes can no longer be saved by the worker-
	// side forwarding tombstones — only the server-side refresh can.
	h.workers[0].Close()
	for id := image.ShardID(0); id < 4; id++ {
		setOwner(s, id, "w0")
	}

	if err := s.Insert(context.Background(), randItem(rng)); err != nil {
		t.Fatalf("insert through stale image: %v", err)
	}
	if got := s.RetryStats(); got == 0 {
		t.Fatal("insert succeeded without any forced image refresh")
	}

	// Re-stale every shard and check both read paths heal the same way.
	for _, p := range readPaths {
		for id := image.ShardID(0); id < 4; id++ {
			setOwner(s, id, "w0")
		}
		count, _, err := p.read(s, keys.AllRect(h.cfg.Schema))
		if err != nil {
			t.Fatalf("%s through stale image: %v", p.name, err)
		}
		if count != n+1 {
			t.Fatalf("%s count = %d, want %d", p.name, count, n+1)
		}
	}
}

// TestStaleRouteRefreshOnMovedReply exercises the classStale path: a
// worker replying "shard moved" triggers an image refresh and a retry
// against the owner the coordinator knows, invisibly to the caller.
func TestStaleRouteRefreshOnMovedReply(t *testing.T) {
	h := newHarness(t, 1, 1)
	moved := func(_ context.Context, p []byte) ([]byte, error) {
		return nil, errors.New(worker.MovedPrefix + "elsewhere")
	}
	h.fakeWorkerAt("ghost", map[string]netmsg.Handler{
		"worker.insert": moved, "worker.query": moved, "worker.groupby": moved,
	})

	s := h.server("s0", time.Hour)
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{3, 3}, Measure: 2}); err != nil {
		t.Fatal(err)
	}
	setOwner(s, 0, "ghost")
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{4, 4}, Measure: 3}); err != nil {
		t.Fatalf("insert via moved reply: %v", err)
	}
	if got := s.RetryStats(); got == 0 {
		t.Fatal("no image refresh recorded")
	}
	for _, p := range readPaths {
		setOwner(s, 0, "ghost")
		before := s.RetryStats()
		count, _, err := p.read(s, keys.AllRect(h.cfg.Schema))
		if err != nil {
			t.Fatalf("%s via moved reply: %v", p.name, err)
		}
		if count != 2 {
			t.Fatalf("%s count = %d, want 2", p.name, count)
		}
		if s.RetryStats() == before {
			t.Fatalf("%s: no image refresh recorded", p.name)
		}
	}
}

// TestRetryExhaustionUnavailable checks the bounded end of the pipeline:
// when every retry round keeps failing, the caller gets a typed
// ErrUnavailable rather than an internal routing error.
func TestRetryExhaustionUnavailable(t *testing.T) {
	h := newHarness(t, 1, 1)
	s, err := New(Options{ID: "s0", Coord: h.store, SyncInterval: time.Hour, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Insert(context.Background(), core.Item{Coords: []uint64{1, 1}, Measure: 1}); err != nil {
		t.Fatal(err)
	}
	// Kill the only worker: refreshes keep resolving to the same dead
	// owner, so the budget runs out.
	h.workers[0].Close()
	err = s.Insert(context.Background(), core.Item{Coords: []uint64{2, 2}, Measure: 1})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if strings.Contains(fmt.Sprint(err), worker.MovedPrefix) {
		t.Fatalf("internal moved error leaked to caller: %v", err)
	}
	for _, p := range readPaths {
		_, _, err = p.read(s, keys.AllRect(h.cfg.Schema))
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s err = %v, want ErrUnavailable", p.name, err)
		}
	}
}

// TestInsertBatchParallelFanOut: acceptance — a batch spanning N workers
// issues its worker RPCs concurrently, like the Query scatter path. Three
// stand-in workers each sleep in worker.insert and record the peak number
// of in-flight requests; a serial fan-out would never overlap them.
func TestInsertBatchParallelFanOut(t *testing.T) {
	h := newHarness(t, 0, 0)
	const sleep = 150 * time.Millisecond
	var inflight, peak atomic.Int32
	slowInsert := func(_ context.Context, p []byte) ([]byte, error) {
		n := inflight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(sleep)
		inflight.Add(-1)
		return nil, nil
	}
	// Three workers with one shard each, boxes spread across dimension A
	// so one item per box routes each group to a different worker.
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("f%d", i)
		h.fakeWorkerAt(id, map[string]netmsg.Handler{"worker.insert": slowInsert})
		k := keys.NewEmpty(h.cfg.Keys, 2, h.cfg.MDSCap)
		k.ExtendPoint([]uint64{uint64(i * 30), uint64(i * 10)})
		sm := &image.ShardMeta{ID: image.ShardID(i), Worker: id, Key: k}
		if _, err := h.store.CreateOrSet(image.ShardPath(image.ShardID(i)), sm.EncodeBytes()); err != nil {
			t.Fatal(err)
		}
	}
	s := h.server("s0", time.Hour)

	batch := []core.Item{
		{Coords: []uint64{0, 0}, Measure: 1},
		{Coords: []uint64{30, 10}, Measure: 1},
		{Coords: []uint64{60, 20}, Measure: 1},
	}
	start := time.Now()
	if err := s.InsertBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := peak.Load(); got < 2 {
		t.Fatalf("peak in-flight worker RPCs = %d, want >= 2 (parallel fan-out)", got)
	}
	if elapsed >= 3*sleep {
		t.Fatalf("batch took %v — serial fan-out (3 workers x %v)", elapsed, sleep)
	}
}
