package worker

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/rollup"
)

// This file attaches the durable subsystem to the worker. The ordering
// contract with internal/durable:
//
//   - inserts apply to the store/queue and append to the shard's WAL
//     under the shard's read lock, so a checkpoint (serialize + WAL
//     rotation under the write lock) observes no half-applied pair —
//     every record in sealed generations is contained in the snapshot,
//     and replay never double-applies;
//   - a split adopts the new right half durably and checkpoints the
//     surviving left half before the split returns, so the durable state
//     tracks the mapping-table flip (§III-E);
//   - a migration releases the shard (force-synced WAL record, manifest
//     tombstone) only after the destination acknowledged the whole copy,
//     so a crash at any point leaves at least one complete owner.

// checkpointPoll is how often the background loop tests shards against
// the snapshot thresholds.
const checkpointPoll = 500 * time.Millisecond

// AttachDurability recovers every shard owned by d's manifest, installs
// the rebuilt stores, and begins logging all subsequent writes to d.
// Call after New and before Listen (no concurrent operations). The
// returned report says what was replayed.
func (w *Worker) AttachDurability(d *durable.Log) (*durable.Recovery, error) {
	// Rollup tables recover alongside the stores: the winning snapshot's
	// trailer restores the cells as of that snapshot, and replayed WAL
	// batches fold in incrementally — no post-recovery rescan of the raw
	// items unless a shard has no usable trailer (pre-rollup snapshot,
	// or the configured definitions changed).
	sets := make(map[uint64]*rollup.Set)
	hooks := durable.RecoverHooks{
		SnapshotTrailer: func(shard uint64, trailer []byte) {
			set, err := rollup.DecodeTrailer(trailer, w.cfg.Schema, w.cfg.Rollups)
			if err == nil && set != nil {
				sets[shard] = set
			}
		},
		Replayed: func(shard uint64, items []core.Item) {
			sets[shard].Add(items)
		},
	}
	rec, err := d.RecoverWithHooks(w.cfg.Schema.NumDims(), func() (core.Store, error) {
		return core.NewStore(w.cfg.StoreConfig())
	}, hooks)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	for id, store := range rec.Shards {
		sid := image.ShardID(id)
		if _, dup := w.shards[sid]; dup {
			w.mu.Unlock()
			return nil, fmt.Errorf("worker %s: recovered shard %d already hosted", w.id, id)
		}
		st := w.newShardState(sid)
		st.store = store
		if set := sets[id]; set != nil {
			st.roll = set
		} else if len(w.cfg.Rollups) > 0 {
			st.roll = rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, store.Items)
		}
		st.setGauges()
		w.shards[sid] = st
	}
	w.dur = d
	w.mu.Unlock()

	w.stopCkpt = make(chan struct{})
	w.ckptWg.Add(1)
	go w.checkpointLoop()
	return rec, nil
}

// Durability returns the attached log (nil when running in-memory only).
func (w *Worker) Durability() *durable.Log { return w.dur }

// appendInsert logs an applied insert batch; the caller holds the
// shard's read lock, ordering it against checkpoints.
func (w *Worker) appendInsert(id image.ShardID, items []core.Item) error {
	if w.dur == nil {
		return nil
	}
	return w.dur.AppendInsert(uint64(id), w.cfg.Schema.NumDims(), items)
}

// CheckpointShard snapshots one shard and truncates its WAL. Shards in
// the middle of a split or migration are skipped (those operations
// checkpoint their own outcome).
func (w *Worker) CheckpointShard(id image.ShardID) error {
	if w.dur == nil {
		return nil
	}
	st := w.shard(id)
	if st == nil {
		return fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	// The write lock excludes in-flight apply+append pairs: the serialized
	// blob contains every record of the generations the rotation seals.
	// Buffered items were WAL-logged at ack time, so they must be flushed
	// into the store before it is serialized — otherwise the rotation
	// would seal their records out of replay.
	st.mu.Lock()
	if st.store == nil || st.queue != nil {
		st.mu.Unlock()
		return nil
	}
	w.drainLocked(st)
	// Composite blob: the store image plus the rollup trailer, so
	// recovery restores the tables without rescanning the raw items.
	blob := append(st.store.Serialize(), st.roll.EncodeTrailer()...)
	err := w.dur.RotateWAL(uint64(id))
	st.mu.Unlock()
	if err != nil {
		return err
	}
	return w.dur.WriteSnapshot(uint64(id), blob)
}

// checkpointLoop periodically checkpoints shards whose WAL outgrew the
// snapshot thresholds, bounding recovery replay time.
func (w *Worker) checkpointLoop() {
	defer w.ckptWg.Done()
	tick := time.NewTicker(checkpointPoll)
	defer tick.Stop()
	for {
		select {
		case <-w.stopCkpt:
			return
		case <-tick.C:
		}
		w.mu.RLock()
		ids := make([]image.ShardID, 0, len(w.shards))
		for id := range w.shards {
			ids = append(ids, id)
		}
		w.mu.RUnlock()
		for _, id := range ids {
			if w.dur.ShouldCheckpoint(uint64(id)) {
				_ = w.CheckpointShard(id) // sticky WAL errors resurface on the next append
			}
		}
	}
}
