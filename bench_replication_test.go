package volap

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/image"
)

// The wall-clock cost of a failover (promotion through query
// convergence). scripts/bench_replication.sh runs it and emits
// BENCH_replication.json.

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
