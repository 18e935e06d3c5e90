package worker

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
)

// This file implements the asynchronous ingest pipeline of §III-E: each
// shard owns a bounded insertion buffer, the insert RPC acknowledges
// after buffer append + WAL append, and a pool of background drain
// goroutines batches buffered items — pre-sorted by compact Hilbert
// index inside core.BulkLoad — into the shard store.
//
// Consistency contract (the same one the split/migration queue obeys):
// an acknowledged item is visible in exactly one container — buffer,
// queue, or store. Appends happen under the shard's read lock; every
// move between containers (drain batches, checkpoint/split/migration
// flushes) happens under the shard's write lock, so concurrent queries
// (which hold the read lock across store + queue + buffer) never see an
// item twice or lose one mid-move.
//
// Durability ordering: the buffer append and the WAL append share one
// read-lock hold, exactly like the old apply+append pair, so a
// checkpoint's write-lock section still observes no half-applied pair.
// Because every acknowledged item is in the WAL before the ack (fsynced
// in sync mode), a crash with a non-empty buffer loses nothing that was
// acknowledged: recovery replays the WAL records. The flush-on-close
// path drains buffers into stores for graceful shutdowns; Crash()
// deliberately skips it.

// maxDrainBatch bounds how many items one drain application takes under
// the shard write lock, bounding the stall it imposes on queries.
const maxDrainBatch = 2048

// DefaultMaxPendingItems is the per-shard insertion-buffer bound when
// Options.MaxPendingItems is zero.
const DefaultMaxPendingItems = 1 << 16

// ingestBuf is one shard's bounded insertion buffer. Its own mutex only
// orders appends against takes and the backpressure waits; visibility
// versus queries and drains is the shard lock's job (see above).
type ingestBuf struct {
	mu        sync.Mutex
	space     *sync.Cond // signaled when a drain frees room
	items     []core.Item
	max       int
	scheduled bool // a drain notification is outstanding
}

func newIngestBuf(max int) *ingestBuf {
	b := &ingestBuf{max: max}
	b.space = sync.NewCond(&b.mu)
	return b
}

// tryAppend adds the batch if it fits under the bound (a batch larger
// than the bound is admitted alone into an empty buffer, so oversized
// batches cannot deadlock). Returns whether the append happened and
// whether the caller must schedule a drain notification.
func (b *ingestBuf) tryAppend(items []core.Item) (appended, schedule bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) > 0 && len(b.items)+len(items) > b.max {
		return false, false
	}
	b.items = append(b.items, items...)
	if !b.scheduled {
		b.scheduled = true
		schedule = true
	}
	return true, schedule
}

// waitSpace blocks until a drain frees room or the context is done. The
// caller must not hold any shard lock.
func (b *ingestBuf) waitSpace(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Cancellation must wake the cond wait; nothing else watches ctx.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.space.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	b.mu.Lock()
	for len(b.items) >= b.max {
		if err := ctx.Err(); err != nil {
			b.mu.Unlock()
			return err
		}
		b.space.Wait()
	}
	b.mu.Unlock()
	return nil
}

// take pops up to max items from the head. When it leaves the buffer
// empty it clears the scheduled flag, so the next append re-notifies.
func (b *ingestBuf) take(max int) []core.Item {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.items)
	if n == 0 {
		b.scheduled = false
		return nil
	}
	if n > max {
		n = max
	}
	batch := b.items[:n:n]
	b.items = b.items[n:]
	if len(b.items) == 0 {
		b.items = nil // let drained batches release their backing array
	}
	b.space.Broadcast()
	return batch
}

// len returns the buffered item count.
func (b *ingestBuf) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// query scans the buffered items inside q. The caller holds the shard
// read lock, so no drain can move items concurrently.
func (b *ingestBuf) query(q keys.Rect) core.Aggregate {
	agg := core.NewAggregate()
	b.mu.Lock()
	for i := range b.items {
		if q.ContainsPoint(b.items[i].Coords) {
			agg.AddItem(b.items[i].Measure)
		}
	}
	b.mu.Unlock()
	return agg
}

// scan visits the buffered items inside q. The caller holds the shard
// read lock, so no drain can move items concurrently.
func (b *ingestBuf) scan(q keys.Rect, fn func(core.Item)) {
	b.mu.Lock()
	for i := range b.items {
		if q.ContainsPoint(b.items[i].Coords) {
			fn(b.items[i])
		}
	}
	b.mu.Unlock()
}

// insertBuffered tries the pipeline path: validate, append to the
// buffer, log to the WAL, ack. Returns handled=false when the shard is
// in a state the buffer must not absorb (queue active, forwarded, or
// gone) — the caller falls back to the synchronous path, which is also
// the pipeline-off behavior.
func (w *Worker) insertBuffered(ctx context.Context, st *shardState, id image.ShardID, items []core.Item) (handled bool, err error) {
	// Validate before buffering: the ack promises the whole batch will
	// apply, and the background drain has nobody to report errors to.
	for i := range items {
		if err := w.cfg.Schema.ValidatePoint(items[i].Coords); err != nil {
			return true, err
		}
	}
	for {
		st.mu.RLock()
		if st.queue != nil || st.store == nil {
			st.mu.RUnlock()
			return false, nil
		}
		appended, schedule := st.buf.tryAppend(items)
		if appended {
			// WAL append under the same read-lock hold as the buffer
			// append: the checkpoint write lock cannot interleave, so
			// sealed WAL generations never contain an item the drained
			// snapshot misses.
			err := w.appendInsert(id, items)
			if err == nil {
				// Replicate before the ack, still under the read-lock
				// hold, so demote/split/migrate (write lock) never
				// observe an acked-but-unshipped batch (replica.go).
				w.shipToReplicas(ctx, st, id, items)
			}
			st.mu.RUnlock()
			if err != nil {
				return true, err
			}
			w.ingestItems.Add(float64(len(items)))
			if schedule {
				w.notifyIngest(st)
			}
			return true, nil
		}
		st.mu.RUnlock()
		if err := st.buf.waitSpace(ctx); err != nil {
			return true, err
		}
	}
}

// notifyIngest hands the shard to the drain pool. During shutdown the
// pool is gone; the flush-on-close path picks the items up instead.
func (w *Worker) notifyIngest(st *shardState) {
	select {
	case w.ingestCh <- st:
	case <-w.stopIngest:
	}
}

// ingestLoop is one drain goroutine of the pool.
func (w *Worker) ingestLoop() {
	defer w.ingestWg.Done()
	for {
		select {
		case <-w.stopIngest:
			return
		case st := <-w.ingestCh:
			w.drainBuffer(st)
		}
	}
}

// drainBuffer applies the shard's buffered items batch by batch, each
// batch under the shard write lock so queries see a consistent count.
// BulkLoad pre-sorts each batch by compact Hilbert index, so the
// per-item descents walk neighboring paths instead of random ones.
func (w *Worker) drainBuffer(st *shardState) {
	for {
		st.mu.Lock()
		batch := st.buf.take(maxDrainBatch)
		if len(batch) == 0 {
			st.mu.Unlock()
			return
		}
		target := st.store
		if st.queue != nil {
			target = st.queue
		}
		if target != nil {
			// Items were validated at ack time; BulkLoad re-validates
			// and cannot fail on them.
			_ = target.BulkLoad(batch)
			if st.queue == nil {
				// Rollup tables mirror the store; queued items reach
				// them when the queue drains back or the split/
				// migration rebuild runs.
				st.roll.Add(batch)
			}
		}
		st.setGauges()
		st.mu.Unlock()
		w.ingestItems.Add(-float64(len(batch)))
		w.drainBatch.Record(time.Duration(len(batch)) * time.Microsecond)
	}
}

// drainLocked flushes the whole buffer into the shard's current
// container. The caller holds the shard write lock; every write-lock
// transition (checkpoint serialize, split queue install, migration
// queue install, graceful close) calls this first so the operation
// observes every acknowledged item.
func (w *Worker) drainLocked(st *shardState) {
	if st.buf == nil {
		return
	}
	for {
		batch := st.buf.take(1 << 30)
		if len(batch) == 0 {
			st.setGauges()
			return
		}
		target := st.store
		if st.queue != nil {
			target = st.queue
		}
		if target != nil {
			_ = target.BulkLoad(batch)
			if st.queue == nil {
				st.roll.Add(batch)
			}
		}
		w.ingestItems.Add(-float64(len(batch)))
	}
}

// Flush synchronously drains every shard's insertion buffer into its
// store. Items acknowledged before the call are applied when it
// returns. A no-op when the pipeline is disabled.
func (w *Worker) Flush() {
	w.mu.RLock()
	states := make([]*shardState, 0, len(w.shards))
	for _, st := range w.shards {
		states = append(states, st)
	}
	w.mu.RUnlock()
	for _, st := range states {
		st.mu.Lock()
		w.drainLocked(st)
		st.mu.Unlock()
	}
}
