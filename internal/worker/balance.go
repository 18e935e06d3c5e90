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
// shard by two), and shard migration (serialize, transfer, buffer rounds,
// forwarding). All of them keep the shard fully readable and writable: a
// moving shard's drains pause, so its store stays frozen for the split or
// serialization, while inserts keep landing in its insertion buffer and
// queries keep consulting store + buffer.

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
	st.mu.Lock()
	w.drainLocked(st) // plan over every acked item, as the split does
	store := st.store
	st.mu.Unlock()
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
// Inserts arriving during the split wait in the insertion buffer and are
// routed across the halves by the hyperplane afterwards; queries are
// never blocked.
func (w *Worker) SplitShard(id, newID image.ShardID) (*SplitResult, error) {
	st := w.shard(id)
	if st == nil {
		return nil, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	store, _, err := w.startMove(st, id)
	if err != nil {
		return nil, err
	}
	// Reserve newID with an empty state, which reads skip, so the swap
	// below can publish both halves in one critical section: a read of
	// shard id that sees the left half then sees the right half too.
	newState := w.newShardState(newID)
	w.mu.Lock()
	_, dup := w.shards[newID]
	if !dup {
		w.shards[newID] = newState
	}
	w.mu.Unlock()
	if dup {
		return nil, w.endMove(st, fmt.Errorf("worker %s: shard %d already hosted", w.id, newID))
	}
	fail := func(err error) (*SplitResult, error) {
		w.mu.Lock()
		delete(w.shards, newID)
		w.mu.Unlock()
		return nil, w.endMove(st, err)
	}
	h, err := store.SplitQuery()
	if err != nil {
		return fail(err)
	}
	left, right, err := store.Split(h)
	if err != nil {
		return fail(err)
	}

	// Route the buffered items across the halves by hyperplane, then swap
	// the halves in.
	st.mu.Lock()
	newState.mu.Lock()
	batch := st.buf.takeAll()
	w.ingestItems.Add(-float64(len(batch)))
	var toLeft, toRight []core.Item
	for i, it := range batch {
		if h.Dim >= 0 && it.Coords[h.Dim] <= h.Value || h.Dim < 0 && i%2 == 0 {
			toLeft = append(toLeft, it)
		} else {
			toRight = append(toRight, it)
		}
	}
	_ = left.BulkLoad(toLeft) // validated at ack time
	_ = right.BulkLoad(toRight)
	// Rollup tables are not subtractable (Min/Max), so both halves
	// rebuild theirs from the new stores while the write locks exclude
	// readers and writers.
	leftRoll := rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, left.Items)
	rightRoll := rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, right.Items)

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
			append(right.Serialize(), rightRoll.EncodeTrailer()...))
		if durErr == nil {
			leftBlob = append(left.Serialize(), leftRoll.EncodeTrailer()...)
			durErr = w.dur.RotateWAL(uint64(id))
		}
		if durErr != nil {
			// Durable state refused the split: keep the original store
			// (Split does not change it), apply the buffered items to it,
			// and report failure so the mapping table never flips.
			_ = store.BulkLoad(batch)
			st.roll.Add(batch)
			st.moving = false
			st.setGauges()
			newState.mu.Unlock()
			st.mu.Unlock()
			w.mu.Lock()
			delete(w.shards, newID)
			w.mu.Unlock()
			return nil, durErr
		}
	}
	st.store, st.roll, st.moving = left, leftRoll, false
	newState.store, newState.roll = right, rightRoll
	st.setGauges()
	newState.setGauges()
	newState.mu.Unlock()
	st.mu.Unlock()

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

// SendShard migrates a shard to the worker at destAddr (§III-E): the
// shard is serialized and transferred while its drains pause, the items
// acknowledged since then follow in rounds, and a forwarding entry serves
// stragglers until every server image has caught up. Until the final
// round flips the shard to forwarding, every item stays at the source,
// which keeps answering for all of them; a failed move just resumes the
// drains. Returns the number of items shipped.
func (w *Worker) SendShard(id image.ShardID, destAddr string) (uint64, error) {
	st := w.shard(id)
	if st == nil {
		return 0, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	store, roll, err := w.startMove(st, id)
	if err != nil {
		return 0, err
	}
	peer, err := w.peer(destAddr)
	if err != nil {
		return 0, w.endMove(st, err)
	}

	// Transfer the serialized shard with its rollup trailer, so the
	// destination installs the tables without rescanning the items
	// (drains are paused, so neither moves underneath).
	blob := append(store.Serialize(), roll.EncodeTrailer()...)
	req := wire.NewWriter(len(blob) + 16)
	req.Uvarint(uint64(id))
	req.Bytes1(blob)
	if _, err := peer.Request("worker.receiveshard", req.Bytes()); err != nil {
		return 0, w.endMove(st, err)
	}

	// Ship the buffered items in rounds, leaving them buffered, and
	// finish under the write lock once a round comes up empty.
	ship := func(items []core.Item) error {
		if len(items) == 0 {
			return nil
		}
		_, err := peer.Request("worker.insert", EncodeInsertRequest(id, w.cfg.Schema.NumDims(), items))
		return err
	}
	sent := 0
	for round := 0; round < 8; round++ {
		batch := st.buf.since(sent)
		if len(batch) == 0 {
			break
		}
		if err := ship(batch); err != nil {
			return 0, w.endMove(st, err)
		}
		sent += len(batch)
	}
	st.mu.Lock()
	if err := ship(st.buf.since(sent)); err != nil {
		st.mu.Unlock()
		return 0, w.endMove(st, err)
	}
	// Emptying the buffer wakes inserters waiting for room; they see the
	// forwarding entry and forward.
	moved := st.buf.takeAll()
	w.ingestItems.Add(-float64(len(moved)))
	st.store = nil
	st.roll = nil
	st.moving = false
	st.forward = destAddr
	st.setGauges()
	st.mu.Unlock()
	shipped := store.Count() + uint64(len(moved))
	// The destination has acknowledged the full copy (snapshot + every
	// round), so release our durable ownership: a synced WAL record, a
	// manifest tombstone, then file deletion. If the release itself fails
	// the migration still reports failure — the mapping table keeps
	// pointing here and the forwarding entry serves traffic, while
	// recovery may resurrect the shard as a second complete copy (the
	// re-registration CAS converges routing onto one of them).
	if w.dur != nil {
		if err := w.dur.ReleaseShard(uint64(id)); err != nil {
			return shipped, err
		}
	}
	return shipped, nil
}

// startMove begins a split or migration of a hosted shard: under the
// write lock it drains the buffer, so the move observes every
// acknowledged item, tears down replication, and pauses the drains.
// Returns the store, which stays frozen until the move ends, and its
// rollup tables. Replication ends here because a follower's standby
// would become a stale superset of a split's halves (promoting it would
// double-count), and a migrated shard's new owner gets a fresh replica
// set: the manager clears the replica set and re-seeds on its next
// ensure pass.
func (w *Worker) startMove(st *shardState, id image.ShardID) (core.Store, *rollup.Set, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !w.drainLocked(st) {
		return nil, nil, fmt.Errorf("worker %s: shard %d busy or gone", w.id, id)
	}
	teardownReplLocked(st)
	st.moving = true
	return st.store, st.roll, nil
}

// endMove abandons a split or migration: every item acknowledged during
// it is still in the buffer, so resuming the drains is the whole
// rollback. Returns err.
func (w *Worker) endMove(st *shardState, err error) error {
	st.mu.Lock()
	st.moving = false
	st.mu.Unlock()
	w.notifyIngest(st)
	return err
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
		occupied := st.store != nil
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
