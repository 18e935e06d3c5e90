package worker

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/netmsg"
)

// heldMove is a migration of shard 1 (100 items) from src to dst whose
// outgoing requests can be held: a request matching a FaultDelay rule
// announces its op on held and waits for a send on release.
type heldMove struct {
	src, dst *Worker
	rng      *rand.Rand
	held     chan string
	release  chan struct{}
	done     chan error // SendShard's result
}

// startHeldMove boots the pair, installs rules (party and kind filled
// in) on the source's outgoing requests, and starts SendShard. The first
// rule must hold worker.receiveshard, so the move is paused before it
// ships anything when startHeldMove returns.
func startHeldMove(t *testing.T, name string, opts Options, rules ...netmsg.FaultRule) *heldMove {
	t.Helper()
	m := &heldMove{
		rng:     rand.New(rand.NewSource(91)),
		held:    make(chan string, 8),
		release: make(chan struct{}),
		done:    make(chan error, 1),
	}
	m.src, _ = startWorkerOpts(t, name+"-src", opts)
	m.dst, _ = startWorkerOpts(t, name+"-dst", opts)
	t.Cleanup(func() { close(m.release) }) // runs before the workers close
	if err := m.src.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	if err := m.src.Insert(context.Background(), 1, randItems(m.rng, m.src.cfg, 100)); err != nil {
		t.Fatal(err)
	}
	f := netmsg.NewFaultInjector(1)
	for _, r := range rules {
		r.Party, r.Kind = "worker/"+m.src.ID(), netmsg.KindRequest
		f.Add(r)
	}
	f.SetHook(func(p netmsg.FaultPoint, a netmsg.FaultAction) {
		if a == netmsg.FaultDelay {
			m.held <- p.Op
			<-m.release
		}
	})
	m.src.SetFaults(f)
	go func() {
		_, err := m.src.SendShard(1, m.dst.Addr())
		m.done <- err
	}()
	m.expectHeld(t, "worker.receiveshard")
	return m
}

func hold(op string) netmsg.FaultRule {
	return netmsg.FaultRule{Op: op, Action: netmsg.FaultDelay, Count: 1}
}

func (m *heldMove) expectHeld(t *testing.T, op string) {
	t.Helper()
	select {
	case got := <-m.held:
		if got != op {
			t.Fatalf("held %s, want %s", got, op)
		}
	case err := <-m.done:
		t.Fatalf("migration ended (err=%v) before %s", err, op)
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s request within 5 s", op)
	}
}

func (m *heldMove) insert(t *testing.T, n int) {
	t.Helper()
	if err := m.src.Insert(context.Background(), 1, randItems(m.rng, m.src.cfg, n)); err != nil {
		t.Fatal(err)
	}
}

// wait releases every held request and returns SendShard's result.
func (m *heldMove) wait(t *testing.T) error {
	t.Helper()
	for {
		select {
		case m.release <- struct{}{}:
		case err := <-m.done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("migration still running after 5 s")
		}
	}
}

// counts asserts a worker's count of shard 1 by ShardCount and by query.
func counts(t *testing.T, w *Worker, want uint64, when string) {
	t.Helper()
	if n := w.ShardCount(1); n != want {
		t.Fatalf("%s: %s ShardCount = %d, want %d", when, w.ID(), n, want)
	}
	if n := queryCount(t, w, 1); n != want {
		t.Fatalf("%s: %s query count = %d, want %d", when, w.ID(), n, want)
	}
}

// TestMoveHeldRoundKeepsItems: while a migration round is in flight, the
// source still answers for every acknowledged item, bulk loads included,
// and the destination ends with all of them.
func TestMoveHeldRoundKeepsItems(t *testing.T) {
	m := startHeldMove(t, "wmh", Options{}, hold("worker.receiveshard"), hold("worker.insert"))
	m.insert(t, 5)
	if _, err := m.src.handleBulkLoad(context.Background(), EncodeInsertRequest(1, 2, randItems(m.rng, m.src.cfg, 5))); err != nil {
		t.Fatal(err)
	}
	m.release <- struct{}{}
	m.expectHeld(t, "worker.insert")
	counts(t, m.src, 110, "round in flight")
	if err := m.wait(t); err != nil {
		t.Fatal(err)
	}
	counts(t, m.dst, 110, "after the move")
	if n := queryCount(t, m.src, 1); n != 110 {
		t.Fatalf("after the move, the source forwards a query that counts %d, want 110", n)
	}
}

// TestMoveFailedRoundKeepsItems: a migration whose round ship fails
// leaves every acknowledged item at the source, and its drains resume.
func TestMoveFailedRoundKeepsItems(t *testing.T) {
	m := startHeldMove(t, "wmf", Options{}, hold("worker.receiveshard"),
		netmsg.FaultRule{Op: "worker.insert", Action: netmsg.FaultSever, Count: 1})
	m.insert(t, 10)
	if err := m.wait(t); err == nil {
		t.Fatal("migration succeeded through a severed round")
	}
	counts(t, m.src, 110, "after the failed move")
	m.insert(t, 3)
	m.src.Flush()
	st := m.src.shard(1)
	st.mu.RLock()
	stored := st.store.Count()
	st.mu.RUnlock()
	if stored != 113 {
		t.Fatalf("store holds %d after Flush, want 113", stored)
	}
}

// TestMoveGaugeExact: worker_shard_items counts a buffered ack at once,
// also while the shard is moving and its drains are paused.
func TestMoveGaugeExact(t *testing.T) {
	m := startHeldMove(t, "wmg", Options{}, hold("worker.receiveshard"))
	m.insert(t, 10)
	if got := shardItemsGauge(t, m.src); got != "110" {
		t.Fatalf("source worker_shard_items = %s during the move, want 110", got)
	}
	if err := m.wait(t); err != nil {
		t.Fatal(err)
	}
	if got := shardItemsGauge(t, m.src); got != "0" {
		t.Fatalf("source worker_shard_items = %s after the move, want 0", got)
	}
	if got := shardItemsGauge(t, m.dst); got != "110" {
		t.Fatalf("destination worker_shard_items = %s after the move, want 110", got)
	}
}

// shardItemsGauge scrapes worker_shard_items{shard="1"}.
func shardItemsGauge(t *testing.T, w *Worker) string {
	t.Helper()
	var b bytes.Buffer
	if err := w.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `worker_shard_items{shard="1"} `); ok {
			return v
		}
	}
	t.Fatalf("no worker_shard_items{shard=\"1\"} in:\n%s", b.String())
	return ""
}

// TestMoveBackpressure: MaxPendingItems bounds a moving shard too. An
// insert that would overflow the buffer waits for the move to end, then
// forwards to the destination, and the final counts are exact.
func TestMoveBackpressure(t *testing.T) {
	m := startHeldMove(t, "wmb", Options{MaxPendingItems: 8}, hold("worker.receiveshard"))
	m.insert(t, 8)
	blocked := make(chan error, 1)
	more := randItems(m.rng, m.src.cfg, 4)
	go func() { blocked <- m.src.Insert(context.Background(), 1, more) }()
	select {
	case err := <-blocked:
		t.Fatalf("insert into a full buffer of a moving shard returned at once (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	counts(t, m.src, 108, "insert waiting")
	if err := m.wait(t); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert still waiting after the move ended")
	}
	counts(t, m.dst, 112, "after the move")
	if n := m.src.ShardCount(1); n != 0 {
		t.Fatalf("source still holds %d items", n)
	}
}

// TestBulkLoadForwardsAfterMigration: worker.bulkload to the source of a
// migrated shard is forwarded like worker.insert, not refused.
func TestBulkLoadForwardsAfterMigration(t *testing.T) {
	src, c := startWorker(t, "wbf-src")
	dst, _ := startWorker(t, "wbf-dst")
	if err := src.CreateShard(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	if err := src.Insert(context.Background(), 1, randItems(rng, src.cfg, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SendShard(1, dst.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("worker.bulkload", EncodeInsertRequest(1, 2, randItems(rng, src.cfg, 20))); err != nil {
		t.Fatal(err)
	}
	if n := dst.ShardCount(1); n != 70 {
		t.Fatalf("destination holds %d items, want 70", n)
	}
	if agg, ok, err := src.QueryShard(context.Background(), 1, keys.AllRect(src.cfg.Schema)); err != nil || !ok || agg.Count != 70 {
		t.Fatalf("forwarded query = %v ok=%v err=%v, want 70", agg, ok, err)
	}
}
