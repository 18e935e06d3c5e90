package volap

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/image"
)

// Replication benchmarks: read scaling from replica-preferring queries
// (the same data served by RF copies instead of one primary) and the
// wall-clock cost of a failover (promotion through query convergence).
// scripts/bench_replication.sh runs these and emits BENCH_replication.json.

// benchReplicaCluster boots a 2-worker cluster at the given replication
// factor with the async ingest pipeline on, seeds it, and pins a
// standing ingest backlog on one hot shard for the whole run. It returns
// a client, a point rect routed to that shard, and a refill func.
//
// The scenario is the read-path asymmetry replication buys under
// high-velocity ingest. A leader read must merge store + pending
// insertion buffer (an O(backlog) scan per query); a standby holds
// applied state only, because records ship and apply at ack time, so a
// replica read never sees the backlog. ReadPreferReplica round-robins
// the hot shard's reads across both copies.
//
// The refill func tops the backlog back up to a fixed setpoint (watching
// the hot worker's pending-items gauge) through direct worker inserts;
// the benchmark calls it between timed sections (StopTimer/StartTimer)
// so the backlog holds its depth instead of decaying at the drain pool's
// mercy. Only reads are metered — the write stream is the scenario, not
// the measured quantity, and it is identical in both configurations.
func benchReplicaCluster(b *testing.B, rf int) (*Client, Rect, func()) {
	b.Helper()
	c, err := Start(Options{
		Schema:            TPCDSSchema(),
		Workers:           2,
		Servers:           1,
		ShardsPerWorker:   2,
		BalanceInterval:   -1,
		SyncInterval:      time.Hour,
		Durability:        DurabilityAsync,
		DataDir:           b.TempDir(),
		ReplicationFactor: rf,
		IngestWorkers:     2,
		MaxPendingItems:   1 << 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	cl, err := c.Client()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	gen := NewGenerator(c.Schema(), 7, 1.1)
	for i := 0; i < 10; i++ {
		if err := cl.BulkLoadNoCtx(gen.Items(2000)); err != nil {
			b.Fatal(err)
		}
	}

	// The hot spot: a point rect at a seeded coordinate, plus the shard
	// and primary worker it routes to.
	probe := NewGenerator(c.Schema(), 7, 1.1).Item()
	ivs := make([]Interval, len(probe.Coords))
	for d, v := range probe.Coords {
		ivs[d] = Interval{Lo: v, Hi: v}
	}
	hotRect := NewRect(ivs...)
	hotShard, hotWorker := hotOwner(b, c, hotRect)

	// Pre-generate distinct refill batches (the worker applies them to
	// whatever shard the insert names — routing happened at the server),
	// so refills spend their time acknowledging, not generating. Distinct
	// coordinates keep the drain path honestly priced.
	const (
		backlogTarget = 60000
		refillBatch   = 2000
	)
	hotGen := NewGenerator(c.Schema(), 99, 1.1)
	batches := make([][]Item, 30)
	for i := range batches {
		batches[i] = hotGen.Items(refillBatch)
	}
	// Refill in concurrent waves: enough inserter goroutines outweigh the
	// drain pool in scheduler share, so acks outrun drains even when each
	// ack also ships to a standby (RF=2).
	const wave = 8
	next := 0
	ctx := context.Background()
	refill := func() {
		for tries := 0; pendingItems(b, c, hotWorker) < backlogTarget; tries++ {
			if tries > 100 {
				b.Fatalf("backlog never reached %d: drains outpace direct inserts", backlogTarget)
			}
			errs := make(chan error, wave)
			for g := 0; g < wave; g++ {
				go func(batch []Item) {
					errs <- c.workers[hotWorker].Insert(ctx, hotShard, batch)
				}(batches[next])
				next = (next + 1) % len(batches)
			}
			for g := 0; g < wave; g++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	refill()
	return cl, hotRect, refill
}

// hotOwner resolves which shard holds the probe point and which cluster
// worker owns it, by asking every worker's stores directly.
func hotOwner(b *testing.B, c *Cluster, q Rect) (ShardID, int) {
	b.Helper()
	ctx := context.Background()
	names, err := c.CoordStore().Children(image.PathShards)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		id, ok := image.ParseShardPath(image.PathShards + "/" + name)
		if !ok {
			continue
		}
		for i, w := range c.workers {
			agg, searched, err := w.QueryShards(ctx, q, []image.ShardID{id})
			if err != nil || searched != 1 {
				continue
			}
			if agg.Count > 0 {
				return id, i
			}
		}
	}
	b.Fatal("no worker store contains the probe point")
	return 0, 0
}

// pendingItems reads one worker's insertion-buffer depth gauge.
func pendingItems(b *testing.B, c *Cluster, worker int) int {
	b.Helper()
	var buf bytes.Buffer
	if err := c.workers[worker].Metrics().WritePrometheus(&buf); err != nil {
		b.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "worker_ingest_queue_items "); found {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				b.Fatalf("parse worker_ingest_queue_items %q: %v", rest, err)
			}
			return int(v)
		}
	}
	b.Fatal("worker_ingest_queue_items not exported")
	return 0
}

// BenchmarkReplicaRead measures hot-shard read throughput under a
// standing ingest backlog. rf1-leader is the baseline (every read hits
// the one primary and pays the pending-buffer scan); rf2-replica spreads
// the same reads across primary + follower with bounded staleness.
func BenchmarkReplicaRead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rf   int
		pref ReadPreference
	}{
		{"rf1-leader", 1, ReadLeader},
		{"rf2-replica", 2, ReadPreferReplica},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			cl, q, refill := benchReplicaCluster(b, cfg.rf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%5 == 0 {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				if _, err := cl.QueryNoCtx(q, WithReadPref(cfg.pref)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReplicationFailoverTime measures the failover window itself: from
// the manager pass that observes the dead primary to the first complete
// query answer, with the detection TTL factored out (the fake clock
// expires the session instantly, as the chaos suite does). Prints a
// machine-readable line for scripts/bench_replication.sh:
//
//	failover_ms=<elapsed>
func TestReplicationFailoverTime(t *testing.T) {
	c, err := Start(Options{
		Schema:            TPCDSSchema(),
		Workers:           2,
		Servers:           1,
		ShardsPerWorker:   2,
		BalanceInterval:   -1,
		SyncInterval:      time.Hour,
		StatsInterval:     50 * time.Millisecond,
		SessionTTL:        time.Second,
		Durability:        DurabilitySync,
		DataDir:           t.TempDir(),
		ReplicationFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loads := seedStream(t, c, cl, 200)
	want := loads[0] + loads[1]

	clk := newChaosClock()
	c.CoordStore().SetClock(clk.now)
	if err := c.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(c.opts.SessionTTL + time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The clock jump transiently expires the survivor's session too;
		// wait until it has re-registered and only the dead worker is gone.
		w0Up := c.CoordStore().Exists(image.WorkerPath("w0"))
		w1Up := c.CoordStore().Exists(image.WorkerPath("w1"))
		if w0Up && !w1Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registrations never settled: w0=%v w1=%v, want true/false", w0Up, w1Up)
		}
		time.Sleep(time.Millisecond)
	}

	// The measured window: promotion pass through full query results.
	start := time.Now()
	if _, err := c.RunBalancePass(); err != nil {
		t.Fatal(err)
	}
	if got := c.BalanceStats().Promotions; got != 2 {
		t.Fatalf("promotions = %d, want 2", got)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && !res.Info.Partial() && res.Agg.Count == want {
			break
		}
		if err != nil && !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrWorkerDown) {
			t.Fatalf("failover query: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never converged: err=%v res=%+v want=%d", err, res, want)
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("failover_ms=%d\n", time.Since(start).Milliseconds())
}
