package manager

import (
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/wire"
	"repro/internal/worker"
)

// This file is the manager half of per-shard replication: it decides
// which workers follow which shards (ensureReplication), promotes the
// freshest follower when a primary's session expires
// (promoteDeadPrimaries), and garbage-collects standbys that no shard
// record references anymore. Workers only execute; the replica placement
// policy lives entirely here, next to the balancing policy.

// replicationPass runs promotion, then — when a replication factor is
// configured — replica-set maintenance. Returns the number of
// promotions + seed operations performed.
func (m *Manager) replicationPass() (int, error) {
	views, shards, err := m.observe()
	if err != nil {
		return 0, err
	}
	ops := m.promoteDeadPrimaries(views, shards)
	if m.opts.ReplicationFactor > 1 {
		if ops > 0 {
			// Promotions rewrote ownership; rebuild the picture before
			// deciding where new replicas belong.
			if views, shards, err = m.observe(); err != nil {
				return ops, err
			}
		}
		ops += m.ensureReplication(views, shards)
	}
	return ops, nil
}

// RunReplicationPass runs one replication maintenance round on demand:
// promote shards whose primary's session expired, then bring every
// shard's replica set up to ReplicationFactor-1 live followers. The
// background loop does the same at the start of every balancing pass.
func (m *Manager) RunReplicationPass() (int, error) {
	return m.replicationPass()
}

// replStatus fetches one worker's replication snapshot.
func (m *Manager) replStatus(addr string) (worker.ReplStatus, error) {
	c, err := m.client(addr)
	if err != nil {
		return worker.ReplStatus{}, err
	}
	resp, err := c.Request("worker.replicastatus", nil)
	if err != nil {
		return worker.ReplStatus{}, err
	}
	return worker.DecodeReplStatus(resp)
}

// statusCache memoizes per-pass worker.replicastatus probes.
type statusCache struct {
	m     *Manager
	views map[string]*workerView
	got   map[string]*worker.ReplStatus
}

func (sc *statusCache) get(workerID string) *worker.ReplStatus {
	if st, ok := sc.got[workerID]; ok {
		return st
	}
	v := sc.views[workerID]
	if v == nil || !v.alive {
		sc.got[workerID] = nil
		return nil
	}
	st, err := sc.m.replStatus(v.meta.Addr)
	if err != nil {
		sc.got[workerID] = nil
		return nil
	}
	sc.got[workerID] = &st
	return &st
}

// freshestFollower returns the listed follower whose standby of shard id
// applied the most shipped records, or "" when none answers. A primary
// drops a follower whose ship fails and keeps acking, so only the
// freshest standby is sure to hold every acknowledged record.
func (sc *statusCache) freshestFollower(id image.ShardID, replicas []string) string {
	best := ""
	var bestApplied uint64
	for _, rid := range replicas {
		st := sc.get(rid)
		if st == nil {
			continue
		}
		for _, s := range st.Standbys {
			if s.Shard == id && (best == "" || s.Applied > bestApplied) {
				best, bestApplied = rid, s.Applied
			}
		}
	}
	return best
}

// sortedShardIDs gives passes a deterministic iteration order.
func sortedShardIDs(shards map[image.ShardID]*image.ShardMeta) []image.ShardID {
	ids := make([]image.ShardID, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// promoteDeadPrimaries promotes the freshest live follower of every
// shard whose primary is no longer registered (its ephemeral session
// expired — mere unreachability is not enough, since a partitioned
// primary may still be serving servers on the other side). One image
// refresh later every server routes to the promoted worker.
func (m *Manager) promoteDeadPrimaries(views map[string]*workerView, shards map[image.ShardID]*image.ShardMeta) int {
	sc := &statusCache{m: m, views: views, got: map[string]*worker.ReplStatus{}}
	ops := 0
	for _, id := range sortedShardIDs(shards) {
		meta := shards[id]
		if views[meta.Worker] != nil || len(meta.Replicas) == 0 {
			continue
		}
		best := sc.freshestFollower(id, meta.Replicas)
		if best == "" {
			continue
		}
		count, err := m.promoteOn(views[best].meta.Addr, id)
		if err != nil {
			continue
		}
		oldOwner := meta.Worker
		if err := m.updateShardMeta(id, func(mm *image.ShardMeta) {
			mm.Worker = best
			mm.Replicas = removeString(mm.Replicas, best)
			if count > mm.Count {
				mm.Count = count
			}
		}); err != nil {
			continue
		}
		meta.Worker = best
		meta.Replicas = removeString(meta.Replicas, best)
		m.mu.Lock()
		m.stats.Promotions++
		m.recordEvent(Event{Kind: EventPromotion, Shard: id, From: oldOwner, To: best, Items: count})
		m.mu.Unlock()
		ops++
	}
	return ops
}

// promoteOn asks the worker at addr to promote its standby of shard id.
func (m *Manager) promoteOn(addr string, id image.ShardID) (uint64, error) {
	c, err := m.client(addr)
	if err != nil {
		return 0, err
	}
	req := wire.NewWriter(8)
	req.Uvarint(uint64(id))
	resp, err := c.Request("worker.promote", req.Bytes())
	if err != nil {
		return 0, err
	}
	return wire.NewReader(resp).Uvarint(), nil
}

// addReplica asks a primary to seed and stream to a new follower.
func (m *Manager) addReplica(primaryAddr string, id image.ShardID, followerID, followerAddr string) error {
	c, err := m.client(primaryAddr)
	if err != nil {
		return err
	}
	req := wire.NewWriter(32)
	req.Uvarint(uint64(id))
	req.String(followerID)
	req.String(followerAddr)
	_, err = c.Request("worker.addreplica", req.Bytes())
	return err
}

// dropReplicaOn asks a follower to discard a standby copy.
func (m *Manager) dropReplicaOn(addr string, id image.ShardID) {
	c, err := m.client(addr)
	if err != nil {
		return
	}
	req := wire.NewWriter(8)
	req.Uvarint(uint64(id))
	_, _ = c.Request("worker.dropreplica", req.Bytes())
}

func removeString(ss []string, s string) []string {
	out := ss[:0]
	for _, v := range ss {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

// ensureReplication brings every live shard's replica set up to
// ReplicationFactor-1 followers: dead followers are pruned from the
// record, followers the primary is no longer shipping to are re-seeded
// (snapshot + live tail — the DynaHash principle of moving bytes once,
// not items forever), and missing slots are filled on the workers
// hosting the fewest standbys. A final sweep drops standbys that no
// shard record references (left over from splits, migrations, or
// replica-set changes). Returns the number of seed operations.
func (m *Manager) ensureReplication(views map[string]*workerView, shards map[image.ShardID]*image.ShardMeta) int {
	desired := m.opts.ReplicationFactor - 1
	sc := &statusCache{m: m, views: views, got: map[string]*worker.ReplStatus{}}

	// Standby placement load, for spreading replicas evenly.
	standbyLoad := make(map[string]int, len(views))
	aliveIDs := make([]string, 0, len(views))
	for wid, v := range views {
		if !v.alive {
			continue
		}
		aliveIDs = append(aliveIDs, wid)
		if st := sc.get(wid); st != nil {
			standbyLoad[wid] = len(st.Standbys)
		}
	}
	sort.Strings(aliveIDs)

	ops := 0
	wanted := make(map[image.ShardID]map[string]bool, len(shards))
	for _, id := range sortedShardIDs(shards) {
		meta := shards[id]
		owner := views[meta.Worker]
		if owner == nil || !owner.alive {
			// Primary down: leave the record alone so a later promotion
			// still has followers to choose from.
			w := map[string]bool{}
			for _, r := range meta.Replicas {
				w[r] = true
			}
			wanted[id] = w
			continue
		}
		shipping := map[string]bool{}
		if st := sc.get(meta.Worker); st != nil {
			for _, l := range st.Links {
				if l.Shard == id {
					shipping[l.Follower] = true
				}
			}
		}
		live := make([]string, 0, len(meta.Replicas))
		changed := false
		for _, r := range meta.Replicas {
			v := views[r]
			if v == nil || !v.alive || r == meta.Worker {
				changed = true
				continue
			}
			if !shipping[r] {
				// The primary lost this stream (ship failure, or the
				// primary itself is a fresh promotion): re-seed.
				if err := m.addReplica(owner.meta.Addr, id, r, v.meta.Addr); err != nil {
					changed = true
					continue
				}
				ops++
			}
			live = append(live, r)
		}
		for len(live) < desired {
			cand := ""
			for _, wid := range aliveIDs {
				if wid == meta.Worker || contains(live, wid) {
					continue
				}
				if cand == "" || standbyLoad[wid] < standbyLoad[cand] {
					cand = wid
				}
			}
			if cand == "" {
				break // not enough live workers; try again next pass
			}
			if err := m.addReplica(owner.meta.Addr, id, cand, views[cand].meta.Addr); err != nil {
				break
			}
			standbyLoad[cand]++
			live = append(live, cand)
			changed = true
			ops++
		}
		if changed {
			if err := m.updateShardMeta(id, func(mm *image.ShardMeta) {
				mm.Replicas = append([]string(nil), live...)
			}); err == nil {
				meta.Replicas = live
			}
		}
		w := make(map[string]bool, len(live))
		for _, r := range live {
			w[r] = true
		}
		wanted[id] = w
	}

	// Garbage-collect unreferenced standbys.
	for _, wid := range aliveIDs {
		st := sc.got[wid]
		if st == nil {
			continue
		}
		for _, s := range st.Standbys {
			if w, ok := wanted[s.Shard]; ok && w[wid] {
				continue
			}
			m.dropReplicaOn(views[wid].meta.Addr, s.Shard)
		}
	}
	return ops
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// PromoteShard promotes the freshest live follower of a shard on
// demand — a failover drill, or read-placement surgery. When the old
// primary is still alive it is demoted afterwards: promote-then-demote
// means every insert acknowledged in the window is either shipped to the
// promoted follower (semi-sync, applied into its now-owned store) or
// forwarded to it by the demotion tombstone, so nothing acknowledged is
// lost. The shard record flips last, which is what servers refresh from.
func (m *Manager) PromoteShard(id image.ShardID) (string, error) {
	views, shards, err := m.observe()
	if err != nil {
		return "", err
	}
	meta := shards[id]
	if meta == nil {
		return "", fmt.Errorf("manager: unknown shard %d", id)
	}
	sc := &statusCache{m: m, views: views, got: map[string]*worker.ReplStatus{}}
	best := sc.freshestFollower(id, meta.Replicas)
	if best == "" {
		return "", fmt.Errorf("manager: shard %d has no live replica", id)
	}
	count, err := m.promoteOn(views[best].meta.Addr, id)
	if err != nil {
		return "", err
	}
	oldOwner := meta.Worker
	if ov := views[oldOwner]; ov != nil && ov.alive && oldOwner != best {
		c, err := m.client(ov.meta.Addr)
		if err == nil {
			req := wire.NewWriter(32)
			req.Uvarint(uint64(id))
			req.String(views[best].meta.Addr)
			// Best effort: a failed demotion leaves a second live copy
			// that the record no longer routes to; inserts shipped to the
			// promoted follower keep it consistent until an operator (or
			// the old primary's restart path) cleans up.
			_, _ = c.Request("worker.demote", req.Bytes())
		}
	}
	if err := m.updateShardMeta(id, func(mm *image.ShardMeta) {
		mm.Worker = best
		mm.Replicas = removeString(mm.Replicas, best)
		if count > mm.Count {
			mm.Count = count
		}
	}); err != nil {
		return "", err
	}
	m.mu.Lock()
	m.stats.Promotions++
	m.recordEvent(Event{Kind: EventPromotion, Shard: id, From: oldOwner, To: best, Items: count})
	m.mu.Unlock()
	return best, nil
}
