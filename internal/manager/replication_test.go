package manager

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/netmsg"
)

// TestPromotionPicksFreshestFollower checks the applied-watermark ranking
// in promoteDeadPrimaries. One follower's ship link is severed, so the
// primary drops it and keeps acking; the other follower alone holds the
// later items. When the primary's registration expires, that follower
// must be promoted, with every acked item. The stale follower is listed
// first, so picking by list order instead of by watermark fails here.
func TestPromotionPicksFreshestFollower(t *testing.T) {
	h := newHarness(t, 3)
	fault := netmsg.NewFaultInjector(1)
	h.workers["w0"].SetFaults(fault)
	rng := rand.New(rand.NewSource(3))
	id := h.addShard("w0", 100, rng)

	m, err := New(Options{Coord: h.store, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RunReplicationPass(); err != nil {
		t.Fatal(err)
	}
	meta := h.shardMeta(id)
	if meta.Worker != "w0" || len(meta.Replicas) != 2 {
		t.Fatalf("after the ensure pass: owner %s, replicas %v; want w0 with two followers", meta.Worker, meta.Replicas)
	}
	stale, fresh := meta.Replicas[0], meta.Replicas[1]

	fault.Add(netmsg.FaultRule{Peer: h.workers[stale].Addr(), Op: "worker.replicate", Action: netmsg.FaultSever})
	items := make([]core.Item, 50)
	for i := range items {
		items[i] = core.Item{Coords: []uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))}, Measure: 1}
	}
	if err := h.workers["w0"].Insert(context.Background(), id, items); err != nil {
		t.Fatalf("insert with one follower severed: %v", err)
	}
	const acked = 150

	if err := h.store.Delete(image.WorkerPath("w0"), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunReplicationPass(); err != nil {
		t.Fatal(err)
	}
	if got := h.shardMeta(id).Worker; got != fresh {
		t.Fatalf("promoted %s, want the fresher follower %s (stale follower %s)", got, fresh, stale)
	}
	if n := h.workers[fresh].ShardCount(id); n != acked {
		t.Fatalf("promoted shard holds %d items, want %d acked", n, acked)
	}
}

// shardMeta reads a shard's record from the global image.
func (h *harness) shardMeta(id image.ShardID) *image.ShardMeta {
	h.t.Helper()
	raw, _, err := h.store.Get(image.ShardPath(id))
	if err != nil {
		h.t.Fatal(err)
	}
	meta, err := image.DecodeShardMetaBytes(raw)
	if err != nil {
		h.t.Fatal(err)
	}
	return meta
}
