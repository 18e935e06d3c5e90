package worker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/netmsg"
)

// startWorkerOpts is startWorker with explicit options.
func startWorkerOpts(tb testing.TB, id string, opts Options) (*Worker, *netmsg.Client) {
	tb.Helper()
	inprocSeq++
	w := NewWithOptions(id, testConfig(tb), opts)
	addr, err := w.Listen(fmt.Sprintf("inproc://wpipe-%s-%d", id, inprocSeq))
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

// TestPipelineVisibility: with the ingest pipeline on, an acknowledged
// insert is immediately visible to queries and stats — whether it is
// still buffered, mid-drain, or applied — and Flush leaves the store
// holding everything.
func TestPipelineVisibility(t *testing.T) {
	w, _ := startWorkerOpts(t, "wpv", Options{IngestWorkers: 2})
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	total := uint64(0)
	for i := 0; i < 50; i++ {
		if err := w.Insert(ctx, 1, randItems(rng, w.cfg, 20)); err != nil {
			t.Fatal(err)
		}
		total += 20
		// Exact-count visibility right after the ack, no matter where
		// the items sit.
		if n := queryCount(t, w, 1); n != total {
			t.Fatalf("after insert %d: query count = %d, want %d", i, n, total)
		}
		if n := w.ShardCount(1); n != total {
			t.Fatalf("after insert %d: ShardCount = %d, want %d", i, n, total)
		}
	}
	w.Flush()
	st := w.shard(1)
	if n := st.buf.len(); n != 0 {
		t.Fatalf("buffer holds %d items after Flush", n)
	}
	st.mu.RLock()
	stored := st.store.Count()
	st.mu.RUnlock()
	if stored != total {
		t.Fatalf("store holds %d after Flush, want %d", stored, total)
	}
}

// TestPipelineInvalidItems: validation happens before the ack, so a bad
// batch is rejected whole and never pollutes the buffer.
func TestPipelineInvalidItems(t *testing.T) {
	w, _ := startWorkerOpts(t, "wpi", Options{IngestWorkers: 1})
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := randItems(rand.New(rand.NewSource(3)), w.cfg, 4)
	bad[2].Coords = []uint64{0, 9999} // out of dimension B's range
	if err := w.Insert(ctx, 1, bad); err == nil {
		t.Fatal("invalid batch should fail")
	}
	w.Flush()
	if n := queryCount(t, w, 1); n != 0 {
		t.Fatalf("rejected batch leaked %d items", n)
	}
}

// TestPipelineBackpressure: a tiny buffer forces inserters to block on
// drains; every acknowledged item must still arrive exactly once.
func TestPipelineBackpressure(t *testing.T) {
	w, _ := startWorkerOpts(t, "wbp", Options{IngestWorkers: 1, MaxPendingItems: 8})
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	const writers, perWriter = 4, 300
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				if err := w.Insert(ctx, 1, randItems(r, w.cfg, 3)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g + 100))
	}
	wg.Wait()
	w.Flush()
	want := uint64(writers * perWriter * 3)
	if n := queryCount(t, w, 1); n != want {
		t.Fatalf("count = %d, want %d", n, want)
	}
}

// TestPipelineBackpressureCancel: an insert blocked on a full buffer
// honors context cancellation instead of waiting forever.
func TestPipelineBackpressureCancel(t *testing.T) {
	// No drain goroutine will ever free room: fill the buffer manually,
	// then watch a blocked insert unblock on cancel.
	w, _ := startWorkerOpts(t, "wbc", Options{IngestWorkers: 1, MaxPendingItems: 4})
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	// Park the buffer at capacity while holding the drain out: simulate
	// by stuffing items directly without notifying the pool.
	rng := rand.New(rand.NewSource(5))
	w.shard(1).buf.tryAppend(randItems(rng, w.cfg, 4))
	more := randItems(rng, w.cfg, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Insert(ctx, 1, more) }()
	select {
	case err := <-done:
		t.Fatalf("insert did not block on full buffer (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled insert returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled insert never returned")
	}
}

// TestPipelineRaceStress drives concurrent inserts, queries, a split,
// and a migration and asserts that no query ever counts fewer items than
// were acknowledged before it was sent, and exact conservation at the
// end. Run under -race this exercises every container transition
// (buffer -> store, buffer -> halves, buffer -> shipped copy).
func TestPipelineRaceStress(t *testing.T) {
	src, _ := startWorkerOpts(t, "wrs-src", Options{IngestWorkers: 2, MaxPendingItems: 512})
	dst, _ := startWorkerOpts(t, "wrs-dst", Options{IngestWorkers: 2, MaxPendingItems: 512})
	if err := src.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	if err := src.Insert(ctx, 1, randItems(rng, src.cfg, 2000)); err != nil {
		t.Fatal(err)
	}

	var inserted atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + r.Intn(4)
				if err := src.Insert(ctx, 1, randItems(r, src.cfg, n)); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(uint64(n))
			}
		}(int64(g + 40))
	}
	// Readers: multi-shard fan-out across both shards the whole time,
	// never below the acknowledged count.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all := keys.AllRect(src.cfg.Schema)
			for {
				select {
				case <-stop:
					return
				default:
				}
				acked := 2000 + inserted.Load()
				agg, _, err := src.QueryShards(ctx, all, []image.ShardID{1, 2})
				if err != nil {
					t.Error(err)
					return
				}
				if agg.Count < acked {
					t.Errorf("query counted %d items, %d were acknowledged before it", agg.Count, acked)
					return
				}
			}
		}()
	}

	time.Sleep(5 * time.Millisecond)
	if _, err := src.SplitShard(1, 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := src.SendShard(2, dst.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	want := 2000 + inserted.Load()
	// Shard 1 lives on src; shard 2 migrated to dst (src forwards).
	agg1, ok1, err1 := src.QueryShard(ctx, 1, keys.AllRect(src.cfg.Schema))
	agg2, ok2, err2 := src.QueryShard(ctx, 2, keys.AllRect(src.cfg.Schema))
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Fatalf("final queries: %v/%v ok=%v/%v", err1, err2, ok1, ok2)
	}
	if got := agg1.Count + agg2.Count; got != want {
		t.Fatalf("conservation broken: %d + %d = %d items, want %d", agg1.Count, agg2.Count, got, want)
	}
}

// TestPipelineDrainOnCloseDurable: a graceful Close drains the buffers
// and the durable log retains every acknowledged item, in both sync and
// async modes; a sync-mode Crash skips the flush but recovery replays
// the WAL to the same exact count.
func TestPipelineDrainOnCloseDurable(t *testing.T) {
	for _, mode := range []durable.Mode{durable.ModeSync, durable.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(51))

			w := startDurablePipelineWorker(t, "wdc", dir, mode)
			if err := w.CreateShard(1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := w.Insert(ctx, 1, randItems(rng, w.cfg, 25)); err != nil {
					t.Fatal(err)
				}
			}
			w.Close() // graceful: drains buffers, syncs the log

			w2 := startDurablePipelineWorker(t, "wdc", dir, mode)
			if n := queryCount(t, w2, 1); n != 1000 {
				t.Fatalf("%s close+recover: %d items, want 1000", mode, n)
			}

			if mode != durable.ModeSync {
				return
			}
			// Sync mode also guarantees crash safety with the pipeline on:
			// acked-but-undrained items come back from the WAL.
			if err := w2.Insert(ctx, 1, randItems(rng, w2.cfg, 123)); err != nil {
				t.Fatal(err)
			}
			w2.Crash()
			w3 := startDurablePipelineWorker(t, "wdc", dir, mode)
			if n := queryCount(t, w3, 1); n != 1123 {
				t.Fatalf("sync crash+recover: %d items, want 1123", n)
			}
		})
	}
}

// startDurablePipelineWorker boots a pipeline-enabled worker over dir.
func startDurablePipelineWorker(tb testing.TB, id, dir string, mode durable.Mode) *Worker {
	tb.Helper()
	w := NewWithOptions(id, testConfig(tb), Options{IngestWorkers: 2})
	d, err := durable.Open(dir, id, mode, durable.Config{
		GroupInterval: time.Millisecond,
		Metrics:       w.Metrics(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.AttachDurability(d); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	return w
}

// TestPipelineCheckpointFlush: a checkpoint serializes the store after
// draining the buffer, so recovery from snapshot + empty WAL tail is
// exact even when items were still buffered at checkpoint time.
func TestPipelineCheckpointFlush(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))

	w := startDurablePipelineWorker(t, "wcf", dir, durable.ModeSync)
	if err := w.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(ctx, 1, randItems(rng, w.cfg, 500)); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckpointShard(1); err != nil {
		t.Fatal(err)
	}
	st := w.shard(1)
	if n := st.buf.len(); n != 0 {
		t.Fatalf("checkpoint left %d items buffered", n)
	}
	w.Crash()

	w2 := startDurablePipelineWorker(t, "wcf", dir, durable.ModeSync)
	if n := queryCount(t, w2, 1); n != 500 {
		t.Fatalf("recovered %d items, want 500", n)
	}
}

// TestReadsStopOnCancelledContext: a done context stops a multi-shard
// read before its next shard, for plain queries and group-bys alike.
func TestReadsStopOnCancelledContext(t *testing.T) {
	w, _ := startWorkerOpts(t, "wcx", Options{})
	rng := rand.New(rand.NewSource(81))
	ids := []image.ShardID{1, 2}
	for _, id := range ids {
		if err := w.CreateShard(id); err != nil {
			t.Fatal(err)
		}
		if err := w.Insert(context.Background(), id, randItems(rng, w.cfg, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	all := keys.AllRect(w.cfg.Schema)
	if _, _, err := w.QueryShards(ctx, all, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryShards on a cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := w.GroupByShards(ctx, all, 0, 0, ids, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("GroupByShards on a cancelled context: err = %v, want context.Canceled", err)
	}
}
