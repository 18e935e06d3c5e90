package worker

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/image"
	"repro/internal/keys"
)

// TestReplicaSeedShipPromote drives the replication protocol between two
// live workers end to end: AddReplica seeds the follower with the
// primary's current state, subsequent inserts ship before the ack and
// keep the standby's lag at zero, and Promote turns the standby into a
// served shard without losing an item.
func TestReplicaSeedShipPromote(t *testing.T) {
	p, _ := startWorker(t, "p")
	f, _ := startWorker(t, "f")
	ctx := context.Background()
	const shard = image.ShardID(7)

	if err := p.CreateShard(shard); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	if err := p.Insert(ctx, shard, randItems(rng, p.cfg, 100)); err != nil {
		t.Fatal(err)
	}

	// Seed: the follower receives a serialized snapshot of the shard.
	count, err := p.AddReplica(shard, "f", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("seed count = %d, want 100", count)
	}
	// Re-adding the same follower is idempotent (re-seed).
	if _, err := p.AddReplica(shard, "f", f.Addr()); err != nil {
		t.Fatal(err)
	}

	// Live shipping: every acked insert is on the follower before the
	// ack returns, so the watermark distance is zero right here.
	if err := p.Insert(ctx, shard, randItems(rng, p.cfg, 50)); err != nil {
		t.Fatal(err)
	}
	fs := f.ReplStatus()
	if len(fs.Standbys) != 1 || fs.Standbys[0].Shard != shard || fs.Standbys[0].Primary != "p" {
		t.Fatalf("follower standbys = %+v", fs.Standbys)
	}
	if lag := fs.Standbys[0].Lag(); lag != 0 {
		t.Fatalf("standby lag = %d after synchronous ship, want 0", lag)
	}
	ps := p.ReplStatus()
	if len(ps.Links) != 1 || ps.Links[0].Follower != "f" || ps.Links[0].Acked != ps.Links[0].Seq {
		t.Fatalf("primary links = %+v", ps.Links)
	}

	// Promotion: the standby becomes a served shard with every item.
	promoted, err := f.Promote(shard)
	if err != nil {
		t.Fatal(err)
	}
	if promoted != 150 {
		t.Fatalf("promoted count = %d, want 150", promoted)
	}
	all := keys.AllRect(p.cfg.Schema)
	agg, searched, err := f.QueryShards(ctx, all, []image.ShardID{shard})
	if err != nil || searched != 1 || agg.Count != 150 {
		t.Fatalf("post-promotion query: err=%v searched=%d count=%d", err, searched, agg.Count)
	}
	if st := f.ReplStatus(); len(st.Standbys) != 0 {
		t.Fatalf("standby list after promotion = %+v, want empty", st.Standbys)
	}

	// Late replicate RPCs from the not-yet-demoted old primary re-route
	// into the promoted shard's normal insert path — nothing acked on
	// the old primary is dropped on the floor.
	if err := p.Insert(ctx, shard, randItems(rng, p.cfg, 10)); err != nil {
		t.Fatal(err)
	}
	agg, _, err = f.QueryShards(ctx, all, []image.ShardID{shard})
	if err != nil || agg.Count != 160 {
		t.Fatalf("post-promotion ship: err=%v count=%d, want 160", err, agg.Count)
	}

	// DropReplica on a promoted (absent) standby is a no-op.
	f.DropReplica(shard)
}
