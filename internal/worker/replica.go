package worker

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/metrics"
	"repro/internal/rollup"
	"repro/internal/wire"
)

// This file implements per-shard replication. A primary ships every
// acknowledged insert batch — framed exactly like its WAL records
// (internal/durable) — to follower workers, which apply it into standby
// shard state. Shipping is semi-synchronous: it happens under the same
// shard read-lock hold as the local apply + WAL append, before the
// insert is acknowledged. That gives two guarantees at once:
//
//   - an acknowledged item is on every healthy follower, so promoting a
//     follower after primary loss loses no acknowledged data;
//   - any write-lock transition (checkpoint, split, migration, demote)
//     observes fully-replicated state, so tearing replication down under
//     the write lock can never strand a half-shipped batch.
//
// Insert batches commute (a shard is a multiset), so concurrent ships
// may arrive at a follower in any order; the per-record sequence number
// exists for the lag watermark and promotion freshness ranking, not for
// ordering.
//
// A follower that cannot be reached is dropped from the primary's link
// table and the insert is still acknowledged — availability wins, and
// the manager's next ensure pass re-seeds the follower from a fresh
// snapshot (snapshot + live tail, never item-by-item streaming).

// replShip is the primary-side shipping state of one shard. The pointer
// lives in shardState.repl and is installed/cleared only under the shard
// write lock; ship operations run under the shard read lock and use this
// mutex for the sequence counter and link table.
type replShip struct {
	mu        sync.Mutex
	seq       uint64 // records assigned to the ship stream
	followers map[string]*followerLink
}

// followerLink is one outgoing replication stream.
type followerLink struct {
	id     string
	addr   string
	acked  uint64 // highest sequence the follower acknowledged
	broken bool
}

// replicaState is one standby shard copy hosted by a follower. The
// RWMutex guards the store pointer and the promoted flag; the watermarks
// are atomics so concurrent applies never serialize on them.
type replicaState struct {
	mu       sync.RWMutex
	store    core.Store
	promoted bool // promote() won the shard; late applies must re-route
	primary  string
	applied  atomic.Uint64 // highest record sequence applied
	head     atomic.Uint64 // highest primary sequence observed
	lag      *metrics.Gauge
}

func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// lagRecords is the standby's current watermark distance.
func (rs *replicaState) lagRecords() uint64 {
	h, a := rs.head.Load(), rs.applied.Load()
	if h <= a {
		return 0
	}
	return h - a
}

// replica returns the standby state for a shard, nil if none is hosted.
func (w *Worker) replica(id image.ShardID) *replicaState {
	w.replMu.Lock()
	defer w.replMu.Unlock()
	return w.replicas[id]
}

// teardownReplLocked disconnects the shard from its followers. The
// caller holds the shard write lock (the start of a split or migration,
// or demote), so no ship is in flight. Follower standby state is the
// manager's to clean up: it clears the meta replica set and drops the
// stale standbys, then re-seeds on the next ensure pass.
func teardownReplLocked(st *shardState) { st.repl = nil }

// shipToReplicas sends one already-applied, already-logged insert batch
// to every follower of the shard. The caller holds the shard read lock
// and has appended the batch to the WAL. Unreachable followers are
// dropped (the ack still happens); the error is absorbed into the
// replica_ship_failures_total counter.
func (w *Worker) shipToReplicas(ctx context.Context, st *shardState, id image.ShardID, items []core.Item) {
	rs := st.repl
	if rs == nil {
		return
	}
	rs.mu.Lock()
	if len(rs.followers) == 0 {
		rs.mu.Unlock()
		return
	}
	rs.seq++
	seq := rs.seq
	links := make([]*followerLink, 0, len(rs.followers))
	for _, l := range rs.followers {
		links = append(links, l)
	}
	rs.mu.Unlock()

	frame := durable.EncodeRecord(durable.Record{
		Type:  durable.RecInsert,
		Shard: uint64(id),
		Data:  durable.EncodeInsert(w.cfg.Schema.NumDims(), items),
	})
	req := wire.NewWriter(len(frame) + 16)
	req.Uvarint(uint64(id))
	req.Uvarint(seq)
	req.Raw(frame)
	payload := req.Bytes()

	for _, l := range links {
		peer, err := w.peer(l.addr)
		var resp []byte
		if err == nil {
			resp, err = peer.RequestCtx(ctx, "worker.replicate", payload)
		}
		if err != nil {
			w.shipFails.Inc()
			rs.mu.Lock()
			l.broken = true
			delete(rs.followers, l.id)
			rs.mu.Unlock()
			continue
		}
		w.shipBytes.Add(uint64(len(frame)))
		r := wire.NewReader(resp)
		if acked := r.Uvarint(); r.Err() == nil {
			rs.mu.Lock()
			if acked > l.acked {
				l.acked = acked
			}
			rs.mu.Unlock()
		}
	}
}

// AddReplica seeds a follower with a snapshot of the shard and starts
// shipping subsequent inserts to it. The whole sequence — drain,
// serialize, seed RPC, link registration — runs under the shard write
// lock, so no insert can slip between the snapshot and the stream (the
// same discipline SendShard uses for its final round). Returns the
// item count of the seeded snapshot.
func (w *Worker) AddReplica(id image.ShardID, followerID, followerAddr string) (uint64, error) {
	st := w.shard(id)
	if st == nil {
		return 0, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	peer, err := w.peer(followerAddr)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !w.drainLocked(st) {
		return 0, fmt.Errorf("worker %s: shard %d busy or gone", w.id, id)
	}
	if st.repl == nil {
		st.repl = &replShip{followers: make(map[string]*followerLink)}
	}
	base := st.repl.seq
	blob := st.store.Serialize()
	req := wire.NewWriter(len(blob) + 32)
	req.Uvarint(uint64(id))
	req.String(w.id)
	req.Uvarint(base)
	req.Bytes1(blob)
	if _, err := peer.Request("worker.replicaseed", req.Bytes()); err != nil {
		return 0, err
	}
	st.repl.followers[followerID] = &followerLink{id: followerID, addr: followerAddr, acked: base}
	w.shipBytes.Add(uint64(len(blob)))
	return st.store.Count(), nil
}

// DropReplica discards a hosted standby copy.
func (w *Worker) DropReplica(id image.ShardID) {
	w.replMu.Lock()
	rs := w.replicas[id]
	delete(w.replicas, id)
	w.replMu.Unlock()
	if rs != nil {
		rs.lag.Set(0)
	}
}

// Promote turns a hosted standby into an owned, served shard: the store
// moves into the worker's shard table (durably adopted when a log is
// attached) and the standby entry is retired. Late replicate RPCs from a
// still-live old primary re-route through the normal insert path, so a
// manual promotion of a healthy shard loses nothing either. Returns the
// promoted item count.
func (w *Worker) Promote(id image.ShardID) (uint64, error) {
	w.replMu.Lock()
	rs := w.replicas[id]
	if rs == nil {
		w.replMu.Unlock()
		return 0, fmt.Errorf("worker %s: no replica of shard %d", w.id, id)
	}
	rs.mu.Lock() // exclude in-flight applies while the store changes hands
	store := rs.store
	// Standbys never maintain rollup tables; build them from the
	// promoted store so served queries can take the rollup path.
	roll := rollup.Rebuild(w.cfg.Schema, w.cfg.Rollups, store.Items)
	if w.dur != nil {
		if err := w.dur.AdoptShard(uint64(id),
			append(store.Serialize(), roll.EncodeTrailer()...)); err != nil {
			rs.mu.Unlock()
			w.replMu.Unlock()
			return 0, err
		}
	}
	w.mu.Lock()
	if st, ok := w.shards[id]; ok {
		// A forwarding tombstone from an old migration may linger; an
		// occupied shard means a routing error upstream.
		st.mu.Lock()
		occupied := st.store != nil
		if !occupied {
			st.store = store
			st.roll = roll
			st.forward = ""
			st.setGauges()
		}
		st.mu.Unlock()
		if occupied {
			w.mu.Unlock()
			rs.mu.Unlock()
			w.replMu.Unlock()
			return 0, fmt.Errorf("worker %s: shard %d already hosted", w.id, id)
		}
	} else {
		st := w.newShardState(id)
		st.store = store
		st.roll = roll
		st.setGauges()
		w.shards[id] = st
	}
	w.mu.Unlock()
	rs.promoted = true
	delete(w.replicas, id)
	rs.mu.Unlock()
	w.replMu.Unlock()
	rs.lag.Set(0)
	return store.Count(), nil
}

// Demote retires the local copy of a shard after a replica elsewhere was
// promoted: buffered items drain (they were shipped at ack time, like
// everything else), the store is discarded, and a forwarding tombstone
// sends stragglers to the new owner. With durability attached the shard
// is released like a completed migration.
func (w *Worker) Demote(id image.ShardID, destAddr string) error {
	st := w.shard(id)
	if st == nil {
		return fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	st.mu.Lock()
	if !w.drainLocked(st) {
		st.mu.Unlock()
		return fmt.Errorf("worker %s: shard %d busy or gone", w.id, id)
	}
	teardownReplLocked(st)
	st.store = nil
	st.roll = nil
	st.setGauges()
	st.forward = destAddr
	st.mu.Unlock()
	if w.dur != nil {
		return w.dur.ReleaseShard(uint64(id))
	}
	return nil
}

// --- status ----------------------------------------------------------------

// ReplicaInfo describes one standby copy hosted by a worker.
type ReplicaInfo struct {
	Shard   image.ShardID
	Primary string
	Applied uint64
	Head    uint64
}

// Lag is the standby's watermark distance in records.
func (ri ReplicaInfo) Lag() uint64 {
	if ri.Head <= ri.Applied {
		return 0
	}
	return ri.Head - ri.Applied
}

// ShipLink describes one outgoing replication stream of a primary.
type ShipLink struct {
	Shard    image.ShardID
	Follower string
	Acked    uint64
	Seq      uint64
}

// ReplStatus is a worker's full replication snapshot: the standbys it
// hosts and the streams it ships as a primary.
type ReplStatus struct {
	Standbys []ReplicaInfo
	Links    []ShipLink
}

// ReplStatus snapshots the worker's replication state.
func (w *Worker) ReplStatus() ReplStatus {
	var out ReplStatus
	w.replMu.Lock()
	for id, rs := range w.replicas {
		out.Standbys = append(out.Standbys, ReplicaInfo{
			Shard:   id,
			Primary: rs.primary,
			Applied: rs.applied.Load(),
			Head:    rs.head.Load(),
		})
	}
	w.replMu.Unlock()

	w.mu.RLock()
	states := make(map[image.ShardID]*shardState, len(w.shards))
	for id, st := range w.shards {
		states[id] = st
	}
	w.mu.RUnlock()
	for id, st := range states {
		st.mu.RLock()
		rs := st.repl
		st.mu.RUnlock()
		if rs == nil {
			continue
		}
		rs.mu.Lock()
		for _, l := range rs.followers {
			out.Links = append(out.Links, ShipLink{Shard: id, Follower: l.id, Acked: l.acked, Seq: rs.seq})
		}
		rs.mu.Unlock()
	}
	return out
}

// EncodeReplStatus serializes a worker.replicastatus reply.
func EncodeReplStatus(s ReplStatus) []byte {
	w := wire.NewWriter(16 + 32*(len(s.Standbys)+len(s.Links)))
	w.Uvarint(uint64(len(s.Standbys)))
	for _, r := range s.Standbys {
		w.Uvarint(uint64(r.Shard))
		w.String(r.Primary)
		w.Uvarint(r.Applied)
		w.Uvarint(r.Head)
	}
	w.Uvarint(uint64(len(s.Links)))
	for _, l := range s.Links {
		w.Uvarint(uint64(l.Shard))
		w.String(l.Follower)
		w.Uvarint(l.Acked)
		w.Uvarint(l.Seq)
	}
	return w.Bytes()
}

// DecodeReplStatus parses a worker.replicastatus reply.
func DecodeReplStatus(b []byte) (ReplStatus, error) {
	r := wire.NewReader(b)
	var s ReplStatus
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		s.Standbys = append(s.Standbys, ReplicaInfo{
			Shard:   image.ShardID(r.Uvarint()),
			Primary: r.String(),
			Applied: r.Uvarint(),
			Head:    r.Uvarint(),
		})
	}
	n = r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		s.Links = append(s.Links, ShipLink{
			Shard:    image.ShardID(r.Uvarint()),
			Follower: r.String(),
			Acked:    r.Uvarint(),
			Seq:      r.Uvarint(),
		})
	}
	return s, r.Err()
}

// --- RPC handlers ----------------------------------------------------------

func (w *Worker) handleAddReplica(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	fid := r.String()
	faddr := r.String()
	if r.Err() != nil {
		return nil, r.Err()
	}
	n, err := w.AddReplica(id, fid, faddr)
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(8)
	out.Uvarint(n)
	return out.Bytes(), nil
}

func (w *Worker) handleDropReplica(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	w.DropReplica(id)
	return nil, nil
}

func (w *Worker) handleReplicaSeed(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	primary := r.String()
	base := r.Uvarint()
	blob := r.Bytes1()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if st := w.shard(id); st != nil {
		st.mu.RLock()
		owned := st.store != nil
		st.mu.RUnlock()
		if owned {
			return nil, fmt.Errorf("worker %s: shard %d owned locally, refusing standby", w.id, id)
		}
	}
	store, err := core.DeserializeStore(blob)
	if err != nil {
		return nil, err
	}
	if store.Config().Schema.Fingerprint() != w.cfg.Schema.Fingerprint() {
		return nil, fmt.Errorf("worker %s: replica seed with foreign schema", w.id)
	}
	rs := &replicaState{store: store, primary: primary, lag: w.replicaLag.With(shardLabel(id))}
	rs.applied.Store(base)
	rs.head.Store(base)
	rs.lag.Set(0)
	w.replMu.Lock()
	w.replicas[id] = rs // a re-seed replaces any stale standby wholesale
	w.replMu.Unlock()
	return nil, nil
}

func (w *Worker) handleReplicate(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	seq := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	frame := p[len(p)-r.Remaining():]
	rec, _, err := durable.DecodeRecord(frame)
	if err != nil {
		return nil, err
	}
	if rec.Type != durable.RecInsert || rec.Shard != uint64(id) {
		return nil, fmt.Errorf("worker %s: replicate record type %d shard %d, want insert for %d", w.id, rec.Type, rec.Shard, id)
	}
	items, err := durable.DecodeInsert(rec.Data, w.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	rs := w.replica(id)
	if rs != nil {
		rs.mu.RLock()
		if !rs.promoted {
			err := rs.store.BulkLoad(items)
			rs.mu.RUnlock()
			if err != nil {
				return nil, err
			}
			atomicMax(&rs.head, seq)
			atomicMax(&rs.applied, seq)
			rs.lag.Set(float64(rs.lagRecords()))
			out := wire.NewWriter(8)
			out.Uvarint(rs.applied.Load())
			return out.Bytes(), nil
		}
		rs.mu.RUnlock()
		// Promoted between lookup and apply: fall through to the owned
		// path so the record still lands in WAL-backed state.
	}
	if st := w.shard(id); st != nil {
		// The standby was promoted here (the record streams from an old
		// primary that has not been demoted yet): apply through the normal
		// insert path, which logs to the WAL and re-ships downstream.
		if err := w.Insert(ctx, id, items); err != nil {
			return nil, err
		}
		out := wire.NewWriter(8)
		out.Uvarint(seq)
		return out.Bytes(), nil
	}
	return nil, fmt.Errorf("worker %s: no replica of shard %d", w.id, id)
}

func (w *Worker) handleReplStatus(context.Context, []byte) ([]byte, error) {
	return EncodeReplStatus(w.ReplStatus()), nil
}

func (w *Worker) handlePromote(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	n, err := w.Promote(id)
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(8)
	out.Uvarint(n)
	return out.Bytes(), nil
}

func (w *Worker) handleDemote(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	dest := r.String()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return nil, w.Demote(id, dest)
}
