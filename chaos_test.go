package volap

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/image"
	"repro/internal/metrics"
	"repro/internal/netmsg"
)

// The chaos suite drives the failure-detection pipeline end to end with
// deterministic schedules: seeded workloads, a fake coordination clock
// for session expiry, Count-limited fault rules, and injector hooks (or
// bounded state polling) instead of wall-clock sleeps.

// chaosClock is an adjustable time source for the coordination store, so
// tests advance session deadlines instead of waiting them out. The base
// is the real start time: deadlines stamped before SetClock stay
// consistent with fake readings after it.
type chaosClock struct {
	base   time.Time
	offset atomic.Int64 // nanoseconds added to base
}

func newChaosClock() *chaosClock { return &chaosClock{base: time.Now()} }

func (c *chaosClock) now() time.Time { return c.base.Add(time.Duration(c.offset.Load())) }

func (c *chaosClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// chaosCluster boots a small two-worker cluster tuned for failure tests:
// the background balancer and image sync are parked (the tests drive
// state changes explicitly) while worker stats republish fast, so a
// transiently expired live session re-registers within milliseconds.
func chaosCluster(t *testing.T, fault *FaultInjector) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Schema:          TPCDSSchema(),
		Workers:         2,
		Servers:         1,
		ShardsPerWorker: 2,
		BalanceInterval: -1,
		SyncInterval:    time.Hour,
		StatsInterval:   50 * time.Millisecond,
		SessionTTL:      time.Second,
		Fault:           fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// seedStream inserts n deterministic items and returns the per-worker
// item counts (ordered by worker ID). It fails the test if the workload
// did not reach every worker — a partial-results assertion needs data on
// both sides of the failure.
func seedStream(t *testing.T, c *Cluster, cl *Client, n int) []uint64 {
	t.Helper()
	gen := NewGenerator(c.Schema(), 17, 1.1)
	for i := 0; i < n; i++ {
		if err := cl.InsertNoCtx(gen.Item()); err != nil {
			t.Fatalf("seed insert %d: %v", i, err)
		}
	}
	ids, loads, err := c.WorkerLoads()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if loads[i] == 0 {
			t.Fatalf("seed left worker %s empty: ids=%v loads=%v", id, ids, loads)
		}
	}
	return loads
}

// TestChaosKillWorkerMidInsertStream kills a worker halfway through an
// insert stream and checks the full degradation pipeline: the abandoned
// session expires after its TTL (driven by the fake clock), servers mark
// the worker down, queries degrade to partial results naming the missing
// shards, and inserts routed to the dead worker fail fast with
// ErrWorkerDown while the surviving worker keeps absorbing writes.
func TestChaosKillWorkerMidInsertStream(t *testing.T) {
	c := chaosCluster(t, nil)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loads := seedStream(t, c, cl, 300)
	liveCount := loads[0] // w0 survives; w1 dies

	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Info.Partial() {
		t.Fatalf("healthy query: err=%v res=%+v", err, res)
	}
	if res.Agg.Count != loads[0]+loads[1] {
		t.Fatalf("healthy count = %d, want %d", res.Agg.Count, loads[0]+loads[1])
	}

	// Crash w1 mid-stream and let its lease run out on the fake clock.
	// The surviving worker's session may expire too (its heartbeats race
	// the jump), but its stats loop re-registers it within StatsInterval;
	// the dead worker never comes back. The poll below converges on
	// exactly that fixed point.
	clk := newChaosClock()
	c.CoordStore().SetClock(clk.now)
	if err := c.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(c.opts.SessionTTL + time.Second)

	// Registrations first: Exists forces lazy expiry, so polling it
	// drives the store to its fixed point — w1 reaped for good, w0
	// either refreshed in time or re-registered by its keeper (both
	// leave its lease stamped against the advanced clock, so no further
	// expiry can fire).
	deadline := time.Now().Add(10 * time.Second)
	for {
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

	deadline = time.Now().Add(10 * time.Second)
	for {
		res, err = cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && res.Info.Partial() &&
			len(res.Info.MissingShards) == 2 && res.Agg.Count == liveCount {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded state never settled: err=%v res=%+v want=%d", err, res, liveCount)
		}
		time.Sleep(time.Millisecond)
	}
	// w0 owns shards {0,1}, w1 owns {2,3} (sequential allocation).
	if res.Info.MissingShards[0] != 2 || res.Info.MissingShards[1] != 3 {
		t.Fatalf("missing shards = %v, want [2 3]", res.Info.MissingShards)
	}

	// The stream continues against the degraded cluster: every insert
	// either lands on the survivor or fails typed — nothing hangs,
	// nothing reports an untyped error.
	gen := NewGenerator(c.Schema(), 23, 1.1)
	var ok, down int
	for i := 0; i < 300; i++ {
		switch err := cl.InsertNoCtx(gen.Item()); {
		case err == nil:
			ok++
		case errors.Is(err, ErrWorkerDown):
			down++
		default:
			t.Fatalf("insert %d: %v, want nil or ErrWorkerDown", i, err)
		}
	}
	if ok == 0 || down == 0 {
		t.Fatalf("degraded stream: ok=%d down=%d, want both > 0", ok, down)
	}
}

// TestChaosKillRestartRecover is the durability pipeline end to end: a
// sync-durable worker is killed mid-insert-stream (fds dropped without
// flushing, like SIGKILL), the cluster degrades to partial results, and a
// replacement process over the same data directory recovers every
// acknowledged insert — queries converge back to full results with zero
// missing shards. Acknowledgements race the background drains, but sync
// durability still guarantees no acked-and-lost items across Crash +
// RestartWorker. It runs the default pool of drains.
func TestChaosKillRestartRecover(t *testing.T) {
	chaosKillRestartRecover(t, 0)
}

// TestChaosKillRestartRecoverPipeline is the same crash/recover drill
// with a single drain per worker, so more acknowledged items are still
// buffered, not yet in a store, when the worker dies.
func TestChaosKillRestartRecoverPipeline(t *testing.T) {
	chaosKillRestartRecover(t, 1)
}

func chaosKillRestartRecover(t *testing.T, ingestWorkers int) {
	c, err := Start(Options{
		Schema:          TPCDSSchema(),
		Workers:         2,
		Servers:         1,
		ShardsPerWorker: 2,
		BalanceInterval: -1,
		SyncInterval:    time.Hour,
		StatsInterval:   50 * time.Millisecond,
		SessionTTL:      time.Second,
		Durability:      DurabilitySync,
		DataDir:         t.TempDir(),
		IngestWorkers:   ingestWorkers,
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
	seeded := loads[0] + loads[1]

	// SIGKILL w1 and let its lease run out on the fake clock.
	clk := newChaosClock()
	c.CoordStore().SetClock(clk.now)
	if err := c.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(c.opts.SessionTTL + time.Second)

	// The stream continues against the degraded cluster; successes land
	// on the survivor, inserts routed at the corpse fail typed.
	gen := NewGenerator(c.Schema(), 23, 1.1)
	var ok uint64
	var down int
	for i := 0; i < 200; i++ {
		switch err := cl.InsertNoCtx(gen.Item()); {
		case err == nil:
			ok++
		case errors.Is(err, ErrWorkerDown):
			down++
		default:
			t.Fatalf("degraded insert %d: %v, want nil or ErrWorkerDown", i, err)
		}
	}
	if down == 0 {
		t.Fatal("no insert ever hit the dead worker")
	}

	// Restart over the same data directory: snapshots + WAL replay must
	// resurrect both of w1's shards with every acknowledged item.
	rec, err := c.RestartWorker("w1")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Shards) != 2 {
		t.Fatalf("recovery report = %+v, want 2 shards", rec)
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}

	// Convergence: full results, zero missing shards, exact count.
	want := seeded + ok
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && !res.Info.Partial() && len(res.Info.MissingShards) == 0 && res.Agg.Count == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never converged: err=%v res=%+v want=%d", err, res, want)
		}
		time.Sleep(time.Millisecond)
	}

	// The recovered worker keeps absorbing writes durably.
	for i := 0; i < 50; i++ {
		if err := cl.InsertNoCtx(gen.Item()); err != nil {
			t.Fatalf("post-recovery insert %d: %v", i, err)
		}
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Info.Partial() || res.Agg.Count != want+50 {
		t.Fatalf("post-recovery query: err=%v res=%+v want=%d", err, res, want+50)
	}
}

// prometheusCounter extracts a counter value from Prometheus text
// exposition output.
func prometheusCounter(t *testing.T, out, name string) uint64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), name+" "); found {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, out)
	return 0
}

// TestChaosPartitionServerWorker cuts the network between the server and
// one worker: queries degrade to partial results while the worker stays
// registered (its coordination heartbeats are unaffected), and healing
// the partition restores full results — no restart, no re-registration.
func TestChaosPartitionServerWorker(t *testing.T) {
	f := NewFaultInjector(21)
	reg := metrics.NewRegistry()
	f.RegisterMetrics(reg)
	c := chaosCluster(t, f)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	loads := seedStream(t, c, cl, 300)
	total := loads[0] + loads[1]

	f.Partition("server/s0", c.WorkerAddr(1))
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && res.Info.Partial() &&
			len(res.Info.MissingShards) == 2 && res.Agg.Count == loads[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partitioned query never degraded: err=%v res=%+v want=%d", err, res, loads[0])
		}
		time.Sleep(time.Millisecond)
	}
	// The worker is unreachable, not dead: its registration must survive.
	if !c.CoordStore().Exists(image.WorkerPath("w1")) {
		t.Fatal("partitioned worker lost its registration")
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := prometheusCounter(t, b.String(), "netmsg_faults_severed_total"); n == 0 {
		t.Fatal("partition fired no sever faults")
	}
	if n := prometheusCounter(t, b.String(), "netmsg_faults_injected_total"); n == 0 {
		t.Fatal("injected counter stayed zero across a partition")
	}

	f.Heal("server/s0", c.WorkerAddr(1))
	deadline = time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && !res.Info.Partial() && res.Agg.Count == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed query never recovered: err=%v res=%+v want=%d", err, res, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosHeartbeatDropPastTTL drops a session's heartbeats on the wire
// until the TTL reaps its ephemeral registration, then heals and checks
// the keeper re-registers under a fresh session — the full Zookeeper
// lose-and-reclaim dance over the RPC transport.
func TestChaosHeartbeatDropPastTTL(t *testing.T) {
	store := coord.NewStore()
	defer store.Close()
	srv, addr, err := coord.Serve(store, "inproc://chaos-heartbeat")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f := netmsg.NewFaultInjector(7)
	var drops atomic.Uint64
	f.SetHook(func(p netmsg.FaultPoint, a netmsg.FaultAction) {
		if p.Op == "coord.heartbeat" && a == netmsg.FaultDrop {
			drops.Add(1)
		}
	})
	cl, err := coord.DialClientOptions(addr, netmsg.DialOpts{
		DefaultTimeout: 100 * time.Millisecond,
		Fault:          f,
		Party:          "chaos-worker",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ttl = 300 * time.Millisecond
	const path = "/volap/workers/chaos"
	sess, err := coord.OpenSession(cl, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sess.Close() }()
	if err := sess.Publish(path, []byte("up")); err != nil {
		t.Fatal(err)
	}
	if !store.Exists(path) {
		t.Fatal("registration missing after Publish")
	}

	// Cut heartbeats only: session management and publishes still flow,
	// exactly like a lossy link that starves the lease.
	cancelDrop := f.Add(netmsg.FaultRule{
		Op:     "coord.heartbeat",
		Kind:   netmsg.KindRequest,
		Action: netmsg.FaultDrop,
	})
	deadline := time.Now().Add(10 * time.Second)
	for store.Exists(path) {
		if time.Now().After(deadline) {
			t.Fatal("registration survived dropped heartbeats past the TTL")
		}
		time.Sleep(time.Millisecond)
	}
	if drops.Load() == 0 {
		t.Fatal("node reaped but no heartbeat was ever dropped")
	}
	evs, _, err := store.EventsSince(context.Background(), 0, "/volap/workers", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var deleted bool
	for _, ev := range evs {
		if ev.Type == coord.EventDeleted && ev.Path == path {
			deleted = true
		}
	}
	if !deleted {
		t.Fatalf("no EventDeleted for the reaped registration in %+v", evs)
	}

	// Heal: the next Publish reclaims the path under a replacement
	// session (retry while the keeper races its own re-establish).
	cancelDrop()
	oldID := sess.ID()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := sess.Publish(path, []byte("back")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("publish never succeeded after healing")
		}
		time.Sleep(time.Millisecond)
	}
	if !store.Exists(path) {
		t.Fatal("registration missing after re-publish")
	}
	if sess.Expirations() == 0 {
		t.Fatal("session keeper never recorded the expiry")
	}
	if sess.ID() == oldID && sess.Expirations() > 0 {
		t.Fatal("session ID unchanged across an expiry")
	}
}

// TestChaosPrimaryFailover is the replication pipeline end to end: with
// RF=2 every primary ships its WAL records to a follower before acking,
// so killing a worker mid-ingest-stream loses nothing — the manager
// promotes the freshest follower as soon as the dead primary's session
// expiry is observed, and one image refresh later queries are complete
// again with zero missing shards and the exact acknowledged count.
// Replication ships under the same read-lock hold as the buffer + WAL
// append, so acked-but-undrained items survive the primary's death too.
// It runs the default pool of drains.
func TestChaosPrimaryFailover(t *testing.T) {
	chaosPrimaryFailover(t, 0)
}

// TestChaosPrimaryFailoverPipeline is the same failover drill with a
// single drain per worker, so more acknowledged items are still buffered
// on the primary when it dies.
func TestChaosPrimaryFailoverPipeline(t *testing.T) {
	chaosPrimaryFailover(t, 1)
}

func chaosPrimaryFailover(t *testing.T, ingestWorkers int) {
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
		IngestWorkers:     ingestWorkers,
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

	// Start seeded every shard's replica set synchronously; the image
	// must say so before the failure, or the test proves nothing.
	for id := ShardID(0); id < 4; id++ {
		raw, _, err := c.CoordStore().Get(image.ShardPath(id))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := image.DecodeShardMetaBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Replicas) != 1 {
			t.Fatalf("shard %d replicas = %v, want exactly 1", id, meta.Replicas)
		}
	}

	loads := seedStream(t, c, cl, 200)
	seeded := loads[0] + loads[1]

	// SIGKILL w1 mid-stream and let its lease run out on the fake clock.
	clk := newChaosClock()
	c.CoordStore().SetClock(clk.now)
	if err := c.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(c.opts.SessionTTL + time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
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

	// The stream continues against the degraded cluster. Every ack —
	// before and after the kill — must survive the failover.
	gen := NewGenerator(c.Schema(), 23, 1.1)
	var ok uint64
	for i := 0; i < 200; i++ {
		switch err := cl.InsertNoCtx(gen.Item()); {
		case err == nil:
			ok++
		case errors.Is(err, ErrWorkerDown):
		default:
			t.Fatalf("degraded insert %d: %v, want nil or ErrWorkerDown", i, err)
		}
	}

	// One manager pass observes the expired session and promotes the
	// follower for both of w1's shards.
	if _, err := c.RunBalancePass(); err != nil {
		t.Fatal(err)
	}
	if got := c.BalanceStats().Promotions; got != 2 {
		t.Fatalf("promotions = %d, want 2", got)
	}

	// One image refresh later: complete answers, zero missing shards,
	// and the exact acknowledged count — nothing acked was lost.
	want := seeded + ok
	deadline = time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && !res.Info.Partial() && len(res.Info.MissingShards) == 0 && res.Agg.Count == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never converged: err=%v res=%+v want=%d", err, res, want)
		}
		time.Sleep(time.Millisecond)
	}

	// The promoted shards absorb writes: the whole keyspace is writable
	// again with w1 still dead.
	deadline = time.Now().Add(10 * time.Second)
	var extra uint64
	for extra < 50 {
		if err := cl.InsertNoCtx(gen.Item()); err == nil {
			extra++
			continue
		} else if !errors.Is(err, ErrWorkerDown) {
			t.Fatalf("post-failover insert: %v", err)
		}
		// A stale route can linger for one refresh; never past the poll.
		if time.Now().After(deadline) {
			t.Fatal("post-failover inserts kept failing")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Info.Partial() || res.Agg.Count != want+extra {
		t.Fatalf("post-failover query: err=%v res=%+v want=%d", err, res, want+extra)
	}
}

// TestPromoteReplicaManual exercises planned promotion on a live
// cluster: PromoteReplica flips a shard's primary to its follower
// without losing a single acked item, and the old primary forwards
// late-routed inserts to the new one.
func TestPromoteReplicaManual(t *testing.T) {
	c, err := Start(Options{
		Schema:            TPCDSSchema(),
		Workers:           2,
		Servers:           1,
		ShardsPerWorker:   2,
		BalanceInterval:   -1,
		SyncInterval:      time.Hour,
		StatsInterval:     50 * time.Millisecond,
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

	loads := seedStream(t, c, cl, 300)
	total := loads[0] + loads[1]

	// Shard 0 lives on w0 (sequential allocation); its follower is w1.
	promoted, err := c.PromoteReplica(0)
	if err != nil {
		t.Fatal(err)
	}
	if promoted != "w1" {
		t.Fatalf("promoted worker = %q, want w1", promoted)
	}
	if got := c.BalanceStats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}

	// No item lost, and the cluster keeps absorbing the stream across
	// the ownership flip (stale routes retry through the image refresh).
	gen := NewGenerator(c.Schema(), 31, 1.1)
	for i := 0; i < 100; i++ {
		if err := cl.InsertNoCtx(gen.Item()); err != nil {
			t.Fatalf("post-promotion insert %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && !res.Info.Partial() && res.Agg.Count == total+100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promotion never converged: err=%v res=%+v want=%d", err, res, total+100)
		}
		time.Sleep(time.Millisecond)
	}
}
