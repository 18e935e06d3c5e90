package server

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/worker"
)

// This file adds replica-aware reads to the query pipeline. Shard metas
// in the global image carry a replica set (the followers a primary ships
// its WAL to); the server folds those into a routing table next to the
// owner map and, when a query opts into ReadPreferReplica, runs a
// single-round pre-pass that spreads shard groups across all copies
// (followers and leader alike, round-robin) before the usual leader
// retry loop picks up whatever the pre-pass could not serve.
//
// The pre-pass never retries: a follower that is lagging past the bound,
// unreachable, or no longer hosting the standby simply leaves its shards
// unserved, and the leader loop — with its refresh/retry/backoff
// machinery — remains the single place that fights for completeness.
// Replica reads therefore never make a query less available than
// leader-only reads, only cheaper when the copies are healthy.

// ReadPreference selects which copies of a shard a query may read.
type ReadPreference uint8

const (
	// ReadLeader routes every shard group to the shard's current owner.
	// Always consistent with the acked write stream.
	ReadLeader ReadPreference = 0
	// ReadPreferReplica spreads shard reads round-robin across the
	// shard's replica set plus its leader, falling back to the leader
	// for any shard whose chosen copy is unreachable or lagging beyond
	// the query's staleness bound.
	ReadPreferReplica ReadPreference = 1
)

// DefaultMaxReplicaLag is the staleness bound, in acked-but-unapplied
// WAL records, a ReadPreferReplica query tolerates when it does not set
// its own (QueryOptions.MaxReplicaLag == 0).
const DefaultMaxReplicaLag = 1024

// QueryOptions tunes one query's read path.
type QueryOptions struct {
	Read ReadPreference
	// MaxReplicaLag bounds how many shipped-but-unapplied records a
	// follower may be behind and still serve the read. Zero means
	// DefaultMaxReplicaLag. Ignored under ReadLeader.
	MaxReplicaLag uint64
	// NoRollup forces the raw tree path even when a materialized rollup
	// covers the query (exact-path benchmarking, debugging).
	NoRollup bool
}

// replicaCandidates returns the shard's candidate readers: live
// followers first, then the live leader, so RF=N rotates reads over N
// copies.
func (s *Server) replicaCandidates(id image.ShardID) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	owner := s.owners[id]
	cands := make([]string, 0, len(s.replicas[id])+1)
	for _, rid := range s.replicas[id] {
		if rid == owner {
			continue
		}
		if _, down := s.down[rid]; down {
			continue
		}
		if s.workers[rid] == nil {
			continue
		}
		cands = append(cands, rid)
	}
	if _, down := s.down[owner]; !down && s.workers[owner] != nil {
		cands = append(cands, owner)
	}
	return cands
}

// replicaPrePass tries to serve shard groups from replica copies in one
// parallel round (maxLag 0 means DefaultMaxReplicaLag). Successful
// groups are merged into agg; the returned slice holds the shards the
// leader rounds must still cover. No retries here by design (see the
// file comment).
func (s *Server) replicaPrePass(ctx context.Context, q keys.Rect, shards []image.ShardID, maxLag uint64, agg *core.Aggregate, info *QueryInfo, contacted map[string]struct{}) []image.ShardID {
	if maxLag == 0 {
		maxLag = DefaultMaxReplicaLag
	}
	rr := s.rrSeq.Add(1)
	byWorker := make(map[string][]image.ShardID)
	skipped := make([]image.ShardID, 0, len(shards))
	for _, id := range shards {
		cands := s.replicaCandidates(id)
		if len(cands) == 0 {
			skipped = append(skipped, id)
			continue
		}
		pick := cands[int(rr%uint64(len(cands)))]
		byWorker[pick] = append(byWorker[pick], id)
		contacted[pick] = struct{}{}
	}
	if len(byWorker) == 0 {
		return shards
	}
	served := make(map[image.ShardID]struct{})
	s.sendRound(ctx, "worker.queryreplica", byWorker,
		func(ids []image.ShardID) []byte { return worker.EncodeReplicaQueryRequest(q, ids, maxLag) },
		func(_ []image.ShardID, resp []byte, err error) {
			var rep worker.ReplicaQueryReply
			if err == nil {
				rep, err = worker.DecodeReplicaQueryReply(resp)
			}
			if err != nil {
				return // its shards fall through to the leader rounds
			}
			agg.Merge(rep.Agg)
			for _, id := range rep.Served {
				served[id] = struct{}{}
			}
			if rep.MaxLag > info.MaxReplicaLag {
				info.MaxReplicaLag = rep.MaxLag
			}
		})
	if len(served) == 0 {
		return shards
	}
	remaining := skipped
	for _, ids := range byWorker {
		for _, id := range ids {
			if _, ok := served[id]; !ok {
				remaining = append(remaining, id)
			}
		}
	}
	info.ReplicaShards = make([]image.ShardID, 0, len(served))
	for id := range served {
		info.ReplicaShards = append(info.ReplicaShards, id)
	}
	sort.Slice(info.ReplicaShards, func(i, j int) bool { return info.ReplicaShards[i] < info.ReplicaShards[j] })
	info.ShardsSearched += len(served)
	s.replicaReads.Add(uint64(len(served)))
	s.traceAdd(ctx, "query.replica", fmt.Sprintf("%d/%d shards from replicas", len(served), len(shards)))
	return remaining
}
