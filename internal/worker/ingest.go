package worker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
)

// This file implements the ingest pipeline of §III-E: each shard owns a
// bounded insertion buffer, the insert RPC acknowledges after buffer
// append + WAL append, and a pool of background drain goroutines batches
// buffered items — pre-sorted by compact Hilbert index inside
// core.BulkLoad — into the shard store. The buffer is the only place an
// acknowledged insert waits, in every shard state.
//
// Consistency contract: an acknowledged item is visible in exactly one
// container — buffer or store. Appends happen under the shard's read
// lock; every move between them (drain batches, checkpoint flushes, the
// end of a split or migration) happens under the shard's write lock, so
// concurrent queries (which hold the read lock across store + buffer)
// never see an item twice or lose one mid-move.
//
// Splits and migrations pause the drains: while a shard is moving, its
// store stays frozen for the split or serialization that reads it
// without the lock, and acknowledged inserts stay in the buffer until
// the move ends (balance.go). The buffer bound holds during a move too.
//
// Durability ordering: the buffer append and the WAL append share one
// read-lock hold, so a checkpoint's write-lock section observes no
// half-logged batch. Because every acknowledged item is in the WAL before
// the ack (fsynced in sync mode), a crash with a non-empty buffer loses
// nothing that was acknowledged: recovery replays the WAL records. The
// flush-on-close path drains buffers into stores for graceful shutdowns;
// Crash() deliberately skips it.

// maxDrainBatch bounds how many items one drain application takes under
// the shard write lock, bounding the stall it imposes on queries.
const maxDrainBatch = 2048

// DefaultMaxPendingItems is the per-shard insertion-buffer bound when
// Options.MaxPendingItems is zero.
const DefaultMaxPendingItems = 1 << 16

// defaultIngestWorkers is the drain pool size when Options.IngestWorkers
// is zero.
const defaultIngestWorkers = 2

// ingestBuf is one shard's bounded insertion buffer. Its own mutex only
// orders appends against takes and the backpressure waits; visibility
// versus queries and drains is the shard lock's job (see above).
type ingestBuf struct {
	mu        sync.Mutex
	space     *sync.Cond // signaled when a take frees room
	items     []core.Item
	max       int
	scheduled bool // a drain notification is outstanding
}

func newIngestBuf(max int) *ingestBuf {
	b := &ingestBuf{max: max}
	b.space = sync.NewCond(&b.mu)
	return b
}

// fits reports whether n more items fit under the bound. A batch larger
// than the bound is admitted alone into an empty buffer, so oversized
// batches cannot deadlock. The caller holds b.mu.
func (b *ingestBuf) fits(n int) bool {
	return len(b.items) == 0 || len(b.items)+n <= b.max
}

// tryAppend adds the batch if it fits under the bound. Returns whether
// the append happened and whether the caller must schedule a drain
// notification.
func (b *ingestBuf) tryAppend(items []core.Item) (appended, schedule bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.fits(len(items)) {
		return false, false
	}
	b.items = append(b.items, items...)
	if !b.scheduled {
		b.scheduled = true
		schedule = true
	}
	return true, schedule
}

// waitSpace blocks until n items fit or the context is done. The caller
// must not hold any shard lock.
func (b *ingestBuf) waitSpace(ctx context.Context, n int) error {
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
	defer b.mu.Unlock()
	for !b.fits(n) {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.space.Wait()
	}
	return nil
}

// take pops up to max items from the head and wakes every inserter
// waiting for room. Called on an empty buffer it clears the scheduled
// flag, so the next append re-notifies; until then one drain loop owns
// the shard.
func (b *ingestBuf) take(max int) []core.Item {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.items)
	if n == 0 {
		b.scheduled = false
		return nil
	}
	n = min(n, max)
	batch := b.items[:n:n]
	b.items = b.items[n:]
	if len(b.items) == 0 {
		b.items = nil // let drained batches release their backing array
	}
	b.space.Broadcast()
	return batch
}

// takeAll empties the buffer, clears the scheduled flag and wakes every
// inserter waiting for room. The caller holds the shard write lock.
func (b *ingestBuf) takeAll() []core.Item {
	b.mu.Lock()
	defer b.mu.Unlock()
	batch := b.items
	b.items = nil
	b.scheduled = false
	b.space.Broadcast()
	return batch
}

// since returns the items from index i on. Only a take removes items,
// and no take runs while a shard is moving, so during a move the indices
// are stable and the returned elements are never rewritten: appends
// write past the capped end.
func (b *ingestBuf) since(i int) []core.Item {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.items)
	return b.items[i:n:n]
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

// ingest is the one state switch of every insert-carrying RPC (op is
// worker.insert or worker.bulkload). A hosted shard takes the batch into
// its buffer, logs it to the WAL, ships it to the replicas and acks;
// worker.bulkload into a shard that is not moving applies the batch to
// the store inline instead. A migrated shard forwards the batch, as op
// and with the caller's trace context, to its new owner.
func (w *Worker) ingest(ctx context.Context, op string, id image.ShardID, items []core.Item) error {
	w.traceAdd(ctx, op, "shard "+shardLabel(id))
	st := w.shard(id)
	if st == nil {
		return fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	defer st.insertLat.Time()()
	// Validate before buffering: the ack promises the whole batch will
	// apply, and the background drain has nobody to report errors to.
	for i := range items {
		if err := w.cfg.Schema.ValidatePoint(items[i].Coords); err != nil {
			return err
		}
	}
	for {
		st.mu.RLock()
		if st.store == nil {
			dest := st.forward
			st.mu.RUnlock()
			if dest == "" {
				return fmt.Errorf("worker %s: shard %d unavailable", w.id, id)
			}
			peer, err := w.peer(dest)
			if err != nil {
				return errors.New(MovedPrefix + dest)
			}
			w.forwards.Inc()
			w.traceAdd(ctx, op+".forward", dest)
			_, err = peer.RequestCtx(ctx, op, EncodeInsertRequest(id, w.cfg.Schema.NumDims(), items))
			return forwardErr(err, dest)
		}
		schedule := false
		if op == "worker.bulkload" && !st.moving {
			_ = st.store.BulkLoad(items) // validated above
			st.roll.Add(items)
		} else {
			var appended bool
			if appended, schedule = st.buf.tryAppend(items); !appended {
				st.mu.RUnlock()
				if err := st.buf.waitSpace(ctx, len(items)); err != nil {
					return err
				}
				continue
			}
			w.ingestItems.Add(float64(len(items)))
		}
		st.setGauges()
		// WAL append and replica ship under the same read-lock hold as the
		// apply: a checkpoint (write lock) cannot interleave, so sealed WAL
		// generations never hold an item its snapshot misses, and
		// demote/split/migrate never observe an acked-but-unshipped batch
		// (replica.go).
		err := w.appendInsert(id, items)
		if err == nil {
			w.shipToReplicas(ctx, st, id, items)
		}
		st.mu.RUnlock()
		if schedule {
			w.notifyIngest(st)
		}
		return err
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
// per-item descents walk neighboring paths instead of random ones. A
// moving shard keeps its buffer and its scheduled flag: a finished move
// takes the buffer, and an abandoned one notifies the pool again.
func (w *Worker) drainBuffer(st *shardState) {
	for {
		st.mu.Lock()
		var batch []core.Item
		if !st.moving {
			batch = st.buf.take(maxDrainBatch)
		}
		if len(batch) == 0 {
			st.mu.Unlock()
			return
		}
		w.applyLocked(st, batch)
		st.setGauges()
		st.mu.Unlock()
		w.drainBatch.Record(time.Duration(len(batch)) * time.Microsecond)
	}
}

// applyLocked moves a batch taken from the buffer into the store and its
// rollup tables. The caller holds the shard write lock.
func (w *Worker) applyLocked(st *shardState, batch []core.Item) {
	// Items were validated at ack time; BulkLoad re-validates and cannot
	// fail on them.
	_ = st.store.BulkLoad(batch)
	st.roll.Add(batch)
	w.ingestItems.Add(-float64(len(batch)))
}

// drainLocked flushes the whole buffer into the store and reports true,
// or reports false and leaves the buffer alone on a shard that is not
// hosted or is moving. The caller holds the shard write lock; every
// write-lock transition (checkpoint serialize, split planning, the start
// of a split or migration, replica seeding, demotion, graceful close)
// calls this first so the operation observes every acknowledged item.
func (w *Worker) drainLocked(st *shardState) bool {
	if st.store == nil || st.moving {
		return false
	}
	if batch := st.buf.takeAll(); len(batch) > 0 {
		w.applyLocked(st, batch)
	}
	st.setGauges()
	return true
}

// Flush synchronously drains every shard's insertion buffer into its
// store. Items acknowledged before the call are applied when it returns,
// except on a shard that is moving, whose buffer the move takes.
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
