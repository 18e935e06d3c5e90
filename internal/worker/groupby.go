package worker

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/wire"
)

// This file implements worker.groupby: one RPC folds per-value
// aggregates for a (dimension, level) pair across a worker's shards,
// instead of the server issuing one worker.query per level value. A
// shard whose rollup table retains the grouped dimension at or below
// the requested level answers at cell granularity; everything else
// walks the shard's tree once (core.Store.GroupQuery). Either way the
// shard's insertion buffer folds in item by item under the same read-lock
// hold the plain query path uses, so group-by sees exactly the
// acknowledged items.

// EncodeGroupByRequest builds the payload for worker.groupby. defIdx is
// the cluster rollup definition shards may answer from (-1 forces the
// tree).
func EncodeGroupByRequest(base keys.Rect, dim, level int, shards []image.ShardID, defIdx int) []byte {
	w := wire.NewWriter(64)
	base.Encode(w)
	w.Uvarint(uint64(dim))
	w.Uvarint(uint64(level))
	encodeShardIDs(w, shards)
	w.Uvarint(uint64(defIdx + 1)) // 0 = none
	return w.Bytes()
}

// decodeGroupByRequest parses a worker.groupby payload.
func decodeGroupByRequest(p []byte, dims int) (base keys.Rect, dim, level int, ids []image.ShardID, defIdx int, err error) {
	r := wire.NewReader(p)
	if base, err = DecodeRect(r, dims); err != nil {
		return keys.Rect{}, 0, 0, nil, 0, err
	}
	dim = int(r.Uvarint())
	level = int(r.Uvarint())
	if ids, err = decodeShardIDs(r); err != nil {
		return keys.Rect{}, 0, 0, nil, 0, err
	}
	defIdx = int(r.Uvarint()) - 1
	return base, dim, level, ids, defIdx, r.Err()
}

// GroupByReply is the decoded result of worker.groupby. Groups is
// sparse: values with no items on the answering shards are absent.
type GroupByReply struct {
	Groups         map[uint64]core.Aggregate
	ShardsSearched uint32
	RollupShards   uint32
	RollupCells    uint64
}

// DecodeGroupByReply parses a worker.groupby response.
func DecodeGroupByReply(b []byte) (GroupByReply, error) {
	r := wire.NewReader(b)
	rep := GroupByReply{
		ShardsSearched: uint32(r.Uvarint()),
		RollupShards:   uint32(r.Uvarint()),
		RollupCells:    r.Uvarint(),
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return GroupByReply{}, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return GroupByReply{}, errors.New("worker: group-by reply group count exceeds payload")
	}
	rep.Groups = make(map[uint64]core.Aggregate, n)
	for i := uint64(0); i < n; i++ {
		v := r.Uvarint()
		agg, err := core.DecodeAggregate(r)
		if err != nil {
			return GroupByReply{}, err
		}
		rep.Groups[v] = agg
	}
	return rep, r.Err()
}

func encodeGroupByReply(rep GroupByReply) []byte {
	w := wire.NewWriter(48 + len(rep.Groups)*40)
	w.Uvarint(uint64(rep.ShardsSearched))
	w.Uvarint(uint64(rep.RollupShards))
	w.Uvarint(rep.RollupCells)
	w.Uvarint(uint64(len(rep.Groups)))
	for v, agg := range rep.Groups {
		w.Uvarint(v)
		agg.Encode(w)
	}
	return w.Bytes()
}

func (w *Worker) handleGroupBy(ctx context.Context, p []byte) ([]byte, error) {
	base, dim, level, ids, defIdx, err := decodeGroupByRequest(p, w.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	w.traceAdd(ctx, "worker.groupby", "")
	rep, err := w.GroupByShards(ctx, base, dim, level, ids, defIdx)
	if err != nil {
		return nil, err
	}
	return encodeGroupByReply(rep), nil
}

// CheckGroupBy validates a group-by of base by the values of dim's
// level against the schema, and returns base with its interval on dim
// clamped to the dimension's last leaf, together with the number of
// leaves under one group value. A base interval that is empty there
// (Lo > Hi, or Lo past the last leaf) is rejected: without the clamp a
// hostile Hi would make one group per value up to it.
func CheckGroupBy(s *hierarchy.Schema, base keys.Rect, dim, level int) (keys.Rect, uint64, error) {
	if len(base.Ivs) != s.NumDims() {
		return keys.Rect{}, 0, fmt.Errorf("group-by base has %d dimensions, schema has %d", len(base.Ivs), s.NumDims())
	}
	if dim < 0 || dim >= s.NumDims() {
		return keys.Rect{}, 0, fmt.Errorf("group-by dimension %d out of range", dim)
	}
	d := s.Dim(dim)
	if level < 0 || level >= d.Depth() {
		return keys.Rect{}, 0, fmt.Errorf("group-by level %d out of range for %s", level, d.Name())
	}
	iv := base.Ivs[dim]
	iv.Hi = min(iv.Hi, d.LeafCount()-1)
	if iv.Lo > iv.Hi {
		return keys.Rect{}, 0, fmt.Errorf("group-by interval [%d,%d] of %s is empty", base.Ivs[dim].Lo, base.Ivs[dim].Hi, d.Name())
	}
	base.Ivs = append([]hierarchy.Interval(nil), base.Ivs...)
	base.Ivs[dim] = iv
	return base, d.LeavesUnder(level + 1), nil
}

// GroupByShards folds one aggregate per value of the dimension's level
// within base, across the given shards one after another. Shards that
// migrated away are chased through their forward address, and a done
// ctx stops the loop before the next shard, like QueryShards.
func (w *Worker) GroupByShards(ctx context.Context, base keys.Rect, dim, level int, ids []image.ShardID, defIdx int) (GroupByReply, error) {
	base, groupSpan, err := CheckGroupBy(w.cfg.Schema, base, dim, level)
	if err != nil {
		return GroupByReply{}, fmt.Errorf("worker: %w", err)
	}
	rep := GroupByReply{Groups: make(map[uint64]core.Aggregate)}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return GroupByReply{}, err
		}
		if err := w.groupByOneShard(ctx, id, base, dim, level, groupSpan, defIdx, &rep); err != nil {
			return GroupByReply{}, err
		}
	}
	return rep, nil
}

// groupByOneShard folds one shard's items into rep.Groups.
func (w *Worker) groupByOneShard(ctx context.Context, id image.ShardID, base keys.Rect, dim, level int, groupSpan uint64, defIdx int, rep *GroupByReply) error {
	st := w.shard(id)
	if st == nil {
		return nil
	}
	defer st.queryLat.Time()()
	st.mu.RLock()
	store, forward := st.store, st.forward
	if store == nil && forward != "" {
		st.mu.RUnlock()
		peer, err := w.peer(forward)
		if err != nil {
			return errors.New(MovedPrefix + forward)
		}
		w.forwards.Inc()
		w.traceAdd(ctx, "worker.groupby.forward", forward)
		resp, err := peer.RequestCtx(ctx, "worker.groupby",
			EncodeGroupByRequest(base, dim, level, []image.ShardID{id}, defIdx))
		if err != nil {
			return forwardErr(err, forward)
		}
		sub, err := DecodeGroupByReply(resp)
		if err != nil {
			return err
		}
		for v, agg := range sub.Groups {
			core.MergeGroup(rep.Groups, v, agg)
		}
		rep.ShardsSearched += sub.ShardsSearched
		rep.RollupShards += sub.RollupShards
		rep.RollupCells += sub.RollupCells
		return nil
	}
	if store == nil {
		st.mu.RUnlock()
		return nil
	}
	// Same read-lock discipline as queryOneShard: no item can move between
	// the store and the insertion buffer underneath us.
	defer st.mu.RUnlock()
	if t := st.roll.Table(defIdx); t != nil && defIdx >= 0 &&
		t.Def().Covers(w.cfg.Schema, base) && t.Def().Depths[dim] >= level+1 {
		cells := t.GroupBy(base, dim, groupSpan, rep.Groups)
		rep.RollupShards++
		rep.RollupCells += uint64(cells)
		w.rollupHits.Inc()
	} else {
		store.GroupQuery(base, dim, groupSpan, rep.Groups)
	}
	// Buffered items are in neither the tree nor the rollup tables.
	st.buf.scan(base, func(it core.Item) {
		v := it.Coords[dim] / groupSpan
		agg, ok := rep.Groups[v]
		if !ok {
			agg = core.NewAggregate()
		}
		agg.AddItem(it.Measure)
		rep.Groups[v] = agg
	})
	rep.ShardsSearched++
	return nil
}
