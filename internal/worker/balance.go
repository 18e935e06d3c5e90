package worker

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/rollup"
	"repro/internal/wire"
)

// This file implements the worker-side load-balancing operations of
// §III-E: SplitQuery, Split (with the mapping-table replacement of one
// shard by two), and shard migration (serialize, transfer, queue drain,
// forwarding). All of them keep the shard fully readable and writable:
// inserts land in an insertion queue and queries consult shard + queue.

// SplitResult reports the outcome of a shard split.
type SplitResult struct {
	LeftID, RightID       image.ShardID
	LeftCount, RightCount uint64
	LeftKey, RightKey     *keys.Key
}

// EncodeSplitRequest builds the payload for worker.splitshard.
func EncodeSplitRequest(shard, newShard image.ShardID) []byte {
	w := wire.NewWriter(16)
	w.Uvarint(uint64(shard))
	w.Uvarint(uint64(newShard))
	return w.Bytes()
}

// DecodeSplitResult parses a worker.splitshard response.
func DecodeSplitResult(b []byte) (*SplitResult, error) {
	r := wire.NewReader(b)
	res := &SplitResult{
		LeftID:     image.ShardID(r.Uvarint()),
		RightID:    image.ShardID(r.Uvarint()),
		LeftCount:  r.Uvarint(),
		RightCount: r.Uvarint(),
	}
	var err error
	if res.LeftKey, err = keys.DecodeKey(r); err != nil {
		return nil, err
	}
	if res.RightKey, err = keys.DecodeKey(r); err != nil {
		return nil, err
	}
	return res, r.Err()
}

func (w *Worker) handleSplitQuery(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	st := w.shard(id)
	if st == nil {
		return nil, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	st.mu.RLock()
	store := st.store
	st.mu.RUnlock()
	if store == nil {
		return nil, fmt.Errorf("worker %s: shard %d unavailable", w.id, id)
	}
	h, err := store.SplitQuery()
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(16)
	out.Varint(int64(h.Dim))
	out.Uvarint(h.Value)
	return out.Bytes(), nil
}

func (w *Worker) handleSplitShard(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	newID := image.ShardID(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	res, err := w.SplitShard(id, newID)
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(64)
	out.Uvarint(uint64(res.LeftID))
	out.Uvarint(uint64(res.RightID))
	out.Uvarint(res.LeftCount)
	out.Uvarint(res.RightCount)
	res.LeftKey.Encode(out)
	res.RightKey.Encode(out)
	return out.Bytes(), nil
}

// SplitShard splits the shard in place: the original ID keeps the lower
// half and newID receives the upper half (§III-E Split + mapping table).
// Inserts arriving during the split land in the insertion queue and are
// re-routed across the halves by the hyperplane afterwards; queries are
// never blocked.
func (w *Worker) SplitShard(id, newID image.ShardID) (*SplitResult, error) {
	st := w.shard(id)
	if st == nil {
		return nil, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	if w.shard(newID) != nil {
		return nil, fmt.Errorf("worker %s: shard %d already hosted", w.id, newID)
	}

	// Install the insertion queue.
	queue, err := core.NewStore(w.cfg.StoreConfig())
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	store := st.store
	if store == nil || st.queue != nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("worker %s: shard %d busy or gone", w.id, id)
	}
	// Flush buffered inserts into the store before the queue takes
	// over, so the split plan and both halves observe every
	// acknowledged item; while the queue is installed, inserts bypass
	// the buffer entirely. Replication links are torn down here: a
	// follower's standby would become a stale superset of the halves
	// (promoting it would double-count), so the manager clears the
	// replica set and re-seeds both halves afresh.
	w.drainLocked(st)
	teardownReplLocked(st)
	st.queue = queue
	st.mu.Unlock()

	fail := func(err error) (*SplitResult, error) {
		// Roll back: drain the queue into the store (and the rollup
		// tables, which mirror it) and remove it.
		st.mu.Lock()
		q := st.queue
		st.queue = nil
		st.mu.Unlock()
		if q != nil {
			q.Items(func(it core.Item) bool {
				_ = st.store.Insert(it)
				st.roll.AddItem(it.Coords, it.Measure)
				return true
			})
		}
		return nil, err
	}

	h, err := store.SplitQuery()
	if err != nil {
		return fail(err)
	}
	left, right, err := store.Split(h)
	if err != nil {
		return fail(err)
	}

	// Swap in the halves, draining the queue across them by hyperplane.
	newState := w.newShardState(newID)
	newState.store = right
	st.mu.Lock()
	q := st.queue
	st.queue = nil
	alt := 0
	q.Items(func(it core.Item) bool {
		toLeft := h.Dim >= 0 && it.Coords[h.Dim] <= h.Value
		if h.Dim < 0 {
			toLeft = alt%2 == 0
			alt++
		}
		if toLeft {
			_ = left.Insert(it)
		} else {
			_ = right.Insert(it)
		}
		return true
	})
	st.store = left
	// Rollup tables are not subtractable (Min/Max), so both halves
	// rebuild theirs from the new stores while the write lock excludes
	// readers and writers.
	st.roll = rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, left.Items)
	newState.roll = rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, right.Items)
	st.setGauges()

	// Make the flip durable while the write lock still excludes inserts:
	// adopt the right half under its new identity, then seal the original
	// WAL so the left-only snapshot below supersedes pre-split records. A
	// crash before the left snapshot lands replays the full pre-split
	// shard under the original ID while the adopted right half stays an
	// unrouted orphan — results remain correct because the manager only
	// publishes the new mapping after this call returns.
	var leftBlob []byte
	if w.dur != nil {
		durErr := w.dur.AdoptShard(uint64(newID),
			append(right.Serialize(), newState.roll.EncodeTrailer()...))
		if durErr == nil {
			leftBlob = append(left.Serialize(), st.roll.EncodeTrailer()...)
			durErr = w.dur.RotateWAL(uint64(id))
		}
		if durErr != nil {
			// Durable state refused the split: merge the halves back and
			// report failure so the mapping table never flips.
			right.Items(func(it core.Item) bool { _ = left.Insert(it); return true })
			st.roll = rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, left.Items)
			st.setGauges()
			st.mu.Unlock()
			return nil, durErr
		}
	}
	st.mu.Unlock()
	newState.setGauges()

	w.mu.Lock()
	w.shards[newID] = newState
	w.mu.Unlock()

	if w.dur != nil {
		if err := w.dur.WriteSnapshot(uint64(id), leftBlob); err != nil {
			return nil, err
		}
	}

	return &SplitResult{
		LeftID: id, RightID: newID,
		LeftCount: left.Count(), RightCount: right.Count(),
		LeftKey: left.Key(), RightKey: right.Key(),
	}, nil
}

// EncodeSendRequest builds the payload for worker.sendshard.
func EncodeSendRequest(shard image.ShardID, destAddr string) []byte {
	w := wire.NewWriter(32)
	w.Uvarint(uint64(shard))
	w.String(destAddr)
	return w.Bytes()
}

func (w *Worker) handleSendShard(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	dest := r.String()
	if r.Err() != nil {
		return nil, r.Err()
	}
	n, err := w.SendShard(id, dest)
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(8)
	out.Uvarint(n)
	return out.Bytes(), nil
}

// SendShard migrates a shard to the worker at destAddr (§III-E): an
// insertion queue absorbs writes while the shard is serialized and
// transferred, the queue is drained to the destination, and a forwarding
// entry serves stragglers until every server image has caught up. Returns
// the number of items shipped.
func (w *Worker) SendShard(id image.ShardID, destAddr string) (uint64, error) {
	st := w.shard(id)
	if st == nil {
		return 0, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	queue, err := core.NewStore(w.cfg.StoreConfig())
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	store := st.store
	if store == nil || st.queue != nil {
		st.mu.Unlock()
		return 0, fmt.Errorf("worker %s: shard %d busy or gone", w.id, id)
	}
	// As in SplitShard: the serialized snapshot below must contain every
	// acknowledged item, and the queue absorbs everything after it.
	// Replication ends here too — the destination owner gets a fresh
	// replica set from the manager's next ensure pass.
	w.drainLocked(st)
	teardownReplLocked(st)
	st.queue = queue
	roll := st.roll
	st.mu.Unlock()

	rollback := func(err error) (uint64, error) {
		st.mu.Lock()
		q := st.queue
		st.queue = nil
		st.mu.Unlock()
		if q != nil {
			q.Items(func(it core.Item) bool {
				_ = store.Insert(it)
				roll.AddItem(it.Coords, it.Measure)
				return true
			})
		}
		return 0, err
	}

	peer, err := w.peer(destAddr)
	if err != nil {
		return rollback(err)
	}

	// Transfer the serialized shard with its rollup trailer, so the
	// destination installs the tables without rescanning the items
	// (inserts are diverted to the queue, so neither moves underneath).
	blob := append(store.Serialize(), roll.EncodeTrailer()...)
	req := wire.NewWriter(len(blob) + 16)
	req.Uvarint(uint64(id))
	req.Bytes1(blob)
	if _, err := peer.Request("worker.receiveshard", req.Bytes()); err != nil {
		return rollback(err)
	}
	shipped := store.Count()

	// Drain the queue in rounds: swap a fresh queue in, ship the old one,
	// and finish under the write lock when a round comes up empty.
	for round := 0; ; round++ {
		st.mu.Lock()
		q := st.queue
		if q.Count() == 0 || round >= 8 {
			// Final round: forward everything still queued while holding
			// the lock, then flip to forwarding mode.
			var leftover []core.Item
			q.Items(func(it core.Item) bool { leftover = append(leftover, it); return true })
			if len(leftover) > 0 {
				if _, err := peer.Request("worker.insert", EncodeInsertRequest(id, w.cfg.Schema.NumDims(), leftover)); err != nil {
					st.mu.Unlock()
					return rollback(err)
				}
				shipped += uint64(len(leftover))
			}
			st.store = nil
			st.queue = nil
			st.roll = nil
			st.setGauges()
			st.forward = destAddr
			st.mu.Unlock()
			// The destination has acknowledged the full copy (snapshot +
			// drained queue), so release our durable ownership: a synced
			// WAL record, a manifest tombstone, then file deletion. If the
			// release itself fails the migration still reports failure —
			// the mapping table keeps pointing here and the forwarding
			// entry serves traffic, while recovery may resurrect the shard
			// as a second complete copy (the re-registration CAS converges
			// routing onto one of them).
			if w.dur != nil {
				if err := w.dur.ReleaseShard(uint64(id)); err != nil {
					return shipped, err
				}
			}
			return shipped, nil
		}
		fresh, err := core.NewStore(w.cfg.StoreConfig())
		if err != nil {
			st.mu.Unlock()
			return rollback(err)
		}
		st.queue = fresh
		st.mu.Unlock()

		var batch []core.Item
		q.Items(func(it core.Item) bool { batch = append(batch, it); return true })
		if len(batch) > 0 {
			if _, err := peer.Request("worker.insert", EncodeInsertRequest(id, w.cfg.Schema.NumDims(), batch)); err != nil {
				return rollback(err)
			}
			shipped += uint64(len(batch))
		}
	}
}

func (w *Worker) handleReceiveShard(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	blob := r.Bytes1()
	if r.Err() != nil {
		return nil, r.Err()
	}
	store, trailer, err := core.DeserializeStoreTrailer(blob)
	if err != nil {
		return nil, err
	}
	if store.Config().Schema.Fingerprint() != w.cfg.Schema.Fingerprint() {
		return nil, fmt.Errorf("worker %s: received shard with foreign schema", w.id)
	}
	// The sender's rollup trailer rides inside the blob; senders with a
	// different (or no) rollup configuration fall back to a rebuild.
	roll, rerr := rollup.DecodeTrailer(trailer, w.cfg.Schema, w.cfg.Rollups)
	if rerr != nil || roll == nil {
		roll = rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, store.Items)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.shards[id]; ok {
		st.mu.RLock()
		occupied := st.store != nil || st.queue != nil
		st.mu.RUnlock()
		if occupied {
			return nil, fmt.Errorf("worker %s: shard %d already hosted", w.id, id)
		}
		// Re-receiving a shard that previously migrated away: replace the
		// forwarding tombstone.
		if err := w.adoptDurable(id, blob); err != nil {
			return nil, err
		}
		st.mu.Lock()
		st.store = store
		st.roll = roll
		st.forward = ""
		st.setGauges()
		st.mu.Unlock()
		return nil, nil
	}
	if err := w.adoptDurable(id, blob); err != nil {
		return nil, err
	}
	st := w.newShardState(id)
	st.store = store
	st.roll = roll
	st.setGauges()
	w.shards[id] = st
	return nil, nil
}

// adoptDurable persists an incoming shard copy before it is installed:
// the sender only releases its own copy once this handler acknowledges,
// so the durable adopt must precede the acknowledgement.
func (w *Worker) adoptDurable(id image.ShardID, blob []byte) error {
	if w.dur == nil {
		return nil
	}
	return w.dur.AdoptShard(uint64(id), blob)
}
