package volap

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/tpcds"
)

// smallSchema keeps integration tests fast.
func smallSchema(tb testing.TB) *Schema {
	tb.Helper()
	return hierarchy.MustSchema(
		hierarchy.MustDimension("A",
			Level{Name: "L1", Fanout: 10},
			Level{Name: "L2", Fanout: 10}),
		hierarchy.MustDimension("B",
			Level{Name: "L1", Fanout: 40}),
	)
}

func testOptions(tb testing.TB) Options {
	o := DefaultOptions(smallSchema(tb))
	o.Workers = 2
	o.Servers = 2
	o.ShardsPerWorker = 2
	o.SyncInterval = 40 * time.Millisecond
	o.StatsInterval = 20 * time.Millisecond
	o.BalanceInterval = -1 // manual balancing in tests
	o.MinMoveItems = 64
	return o
}

func randItem(rng *rand.Rand, s *Schema) Item {
	coords := make([]uint64, s.NumDims())
	for d := range coords {
		f := rng.Float64()
		coords[d] = uint64(f * f * float64(s.Dim(d).LeafCount()))
		if coords[d] >= s.Dim(d).LeafCount() {
			coords[d] = s.Dim(d).LeafCount() - 1
		}
	}
	return Item{Coords: coords, Measure: 1}
}

func randRect(rng *rand.Rand, s *Schema) Rect {
	ivs := make([]Interval, s.NumDims())
	for d := range ivs {
		dim := s.Dim(d)
		depth := rng.Intn(dim.Depth() + 1)
		prefix := make([]uint32, depth)
		for l := 0; l < depth; l++ {
			prefix[l] = uint32(rng.Intn(int(dim.Level(l).Fanout)))
		}
		iv, err := dim.NodeInterval(depth, prefix)
		if err != nil {
			panic(err)
		}
		ivs[d] = iv
	}
	return NewRect(ivs...)
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Error("missing schema should fail")
	}
	if _, err := Start(Options{Schema: smallSchema(t), Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport should fail")
	}
}

func TestStartStop(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumWorkers() != 2 || c.NumServers() != 2 {
		t.Errorf("cluster shape %d/%d", c.NumWorkers(), c.NumServers())
	}
	if c.Schema().NumDims() != 2 {
		t.Error("schema wrong")
	}
	c.Stop()
	c.Stop() // idempotent
}

// TestInsertQueryMatchesReference drives the full distributed stack and
// compares against brute force.
func TestInsertQueryMatchesReference(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(1))
	var ref []Item
	var batch []Item
	for i := 0; i < 3000; i++ {
		it := randItem(rng, c.Schema())
		ref = append(ref, it)
		batch = append(batch, it)
		if len(batch) == 100 {
			if err := cl.InsertBatchNoCtx(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != 3000 {
		t.Fatalf("full query = %d", res.Agg.Count)
	}
	if res.Info.ShardsConsidered == 0 || res.Info.WorkersContacted == 0 {
		t.Errorf("query info empty: %+v", res.Info)
	}
	for q := 0; q < 30; q++ {
		rect := randRect(rng, c.Schema())
		res, err := cl.QueryNoCtx(rect)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, it := range ref {
			if rect.ContainsPoint(it.Coords) {
				want++
			}
		}
		if res.Agg.Count != want {
			t.Fatalf("query %v = %d, want %d", rect, res.Agg.Count, want)
		}
	}
}

func TestBulkLoad(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, _ := c.Client()
	defer cl.Close()
	rng := rand.New(rand.NewSource(2))
	items := make([]Item, 5000)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Agg.Count != 5000 {
		t.Fatalf("after bulk: %v %v", res, err)
	}
}

// TestCrossServerFreshness checks the paper's §IV-F behaviour: a session
// on the same server sees its own inserts immediately; a session on a
// different server converges after the synchronization interval.
func TestCrossServerFreshness(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	a, _ := c.ClientTo(0)
	defer a.Close()
	b, _ := c.ClientTo(1)
	defer b.Close()

	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 500)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := a.InsertBatchNoCtx(items); err != nil {
		t.Fatal(err)
	}
	// Same-server session: immediately visible.
	res, err := a.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Agg.Count != 500 {
		t.Fatalf("same-server query = %v %v", res, err)
	}
	// Cross-server session: converges within a few sync intervals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := b.QueryNoCtx(AllRect(c.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Count == 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-server query stuck at %d", res.Agg.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadBalancing adds an empty worker and checks the manager moves
// data onto it without losing anything (the Figure 6 mechanism).
func TestLoadBalancing(t *testing.T) {
	opts := testOptions(t)
	opts.Workers = 2
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, _ := c.Client()
	defer cl.Close()

	rng := rand.New(rand.NewSource(4))
	items := make([]Item, 6000)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}

	if _, err := c.AddWorker(); err != nil {
		t.Fatal(err)
	}
	// Give stats publication a moment, then balance until quiescent.
	time.Sleep(50 * time.Millisecond)
	totalOps := 0
	for pass := 0; pass < 30; pass++ {
		ops, err := c.RunBalancePass()
		if err != nil {
			t.Fatal(err)
		}
		totalOps += ops
		if ops == 0 && pass > 0 {
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	if totalOps == 0 {
		t.Fatal("balancer did nothing")
	}
	st := c.BalanceStats()
	if st.Migrations == 0 {
		t.Errorf("no migrations: %+v", st)
	}
	ids, loads, err := c.WorkerLoads()
	if err != nil {
		t.Fatal(err)
	}
	var total, maxL, minL uint64
	minL = ^uint64(0)
	for i, n := range loads {
		total += n
		if n > maxL {
			maxL = n
		}
		if n < minL {
			minL = n
		}
		_ = ids[i]
	}
	if total != 6000 {
		t.Fatalf("items after balancing = %d, want 6000", total)
	}
	if minL == 0 {
		t.Errorf("new worker still empty: %v", loads)
	}
	// Queries remain exact throughout (forwarding + image updates).
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && res.Agg.Count == 6000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query after balancing = %v %v", res, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainWorker shrinks the cluster: all shards leave one worker and
// the data remains exact.
func TestDrainWorker(t *testing.T) {
	opts := testOptions(t)
	opts.Workers = 3
	opts.ShardsPerWorker = 2
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, _ := c.Client()
	defer cl.Close()

	rng := rand.New(rand.NewSource(8))
	items := make([]Item, 5000)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let worker stats publish

	moved, err := c.DrainWorker("w1")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing drained")
	}
	ids, loads, err := c.WorkerLoads()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, id := range ids {
		total += loads[i]
		if id == "w1" && loads[i] != 0 {
			t.Errorf("w1 still holds %d items", loads[i])
		}
	}
	if total != 5000 {
		t.Fatalf("items after drain = %d", total)
	}
	// Queries converge to the full count (forwarding + image updates).
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err == nil && res.Agg.Count == 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query after drain: %v %v", res, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentSessions runs several client sessions (mixed inserts and
// queries) against both servers simultaneously.
func TestConcurrentSessions(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const sessions = 4
	const perSession = 400
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := c.Client()
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSession; i++ {
				if err := cl.InsertNoCtx(randItem(rng, c.Schema())); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if _, err := cl.QueryNoCtx(randRect(rng, c.Schema())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(s + 100))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cl, _ := c.Client()
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	want := uint64(sessions * perSession)
	for {
		res, err := cl.QueryNoCtx(AllRect(c.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Count == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("converged to %d, want %d", res.Agg.Count, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGroupBy checks the OLAP roll-up primitive against brute force: the
// per-group counts partition the total and match reference aggregation.
func TestGroupBy(t *testing.T) {
	c, err := Start(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, _ := c.Client()
	defer cl.Close()

	rng := rand.New(rand.NewSource(17))
	var ref []Item
	items := make([]Item, 4000)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
		ref = append(ref, items[i])
	}
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}

	// Group by level 0 of dimension 0 (10 values).
	res, err := cl.QueryNoCtx(AllRect(c.Schema()), WithGroupBy(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Groups
	d0 := c.Schema().Dim(0)
	if len(groups) != int(d0.Level(0).Fanout) {
		t.Fatalf("groups = %d, want %d", len(groups), d0.Level(0).Fanout)
	}
	var total uint64
	span := d0.LeavesUnder(1)
	for _, g := range groups {
		total += g.Agg.Count
		var want uint64
		var wantSum float64
		for _, it := range ref {
			if it.Coords[0]/span == g.Value {
				want++
				wantSum += it.Measure
			}
		}
		if g.Agg.Count != want {
			t.Fatalf("group %d count = %d, want %d", g.Value, g.Agg.Count, want)
		}
		if wantSum != g.Agg.Sum {
			t.Fatalf("group %d sum = %f, want %f", g.Value, g.Agg.Sum, wantSum)
		}
	}
	if total != 4000 {
		t.Fatalf("groups sum to %d", total)
	}

	// Group within a restricted base region at a deeper level.
	base := AllRect(c.Schema())
	iv, err := c.Schema().Dim(0).NodeInterval(1, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	base.Ivs[0] = iv
	res, err = cl.QueryNoCtx(base, WithGroupBy(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Groups
	if len(sub) != int(d0.Level(1).Fanout) {
		t.Fatalf("sub-groups = %d", len(sub))
	}
	var subTotal uint64
	for _, g := range sub {
		subTotal += g.Agg.Count
	}
	if subTotal != groups[0].Agg.Count {
		t.Fatalf("drill-down sums to %d, parent group has %d", subTotal, groups[0].Agg.Count)
	}

	// Errors.
	if _, err := cl.QueryNoCtx(AllRect(c.Schema()), WithGroupBy(99, 0)); err == nil {
		t.Error("bad dimension should fail")
	}
	if _, err := cl.QueryNoCtx(AllRect(c.Schema()), WithGroupBy(0, 99)); err == nil {
		t.Error("bad level should fail")
	}
}

// TestTCPTransport boots the same stack over real TCP sockets.
func TestTCPTransport(t *testing.T) {
	opts := testOptions(t)
	opts.Transport = "tcp"
	opts.Servers = 1
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(6))
	items := make([]Item, 800)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := cl.InsertBatchNoCtx(items); err != nil {
		t.Fatal(err)
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Agg.Count != 800 {
		t.Fatalf("tcp query = %v %v", res, err)
	}
}

// TestTPCDSEndToEnd runs the paper's workload (TPC-DS schema, skewed
// generator, binned queries) through the full stack.
func TestTPCDSEndToEnd(t *testing.T) {
	opts := DefaultOptions(TPCDSSchema())
	opts.Workers = 2
	opts.Servers = 1
	opts.ShardsPerWorker = 2
	opts.SyncInterval = 50 * time.Millisecond
	opts.BalanceInterval = -1
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, _ := c.Client()
	defer cl.Close()

	gen := tpcds.NewGenerator(TPCDSSchema(), 42, 1.1)
	items := gen.Items(4000)
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}
	count := func(q Rect) uint64 {
		res, err := cl.QueryNoCtx(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Agg.Count
	}
	bins := gen.GenerateBinned(count, 4000, 3, 2000)
	for b := tpcds.Low; b <= tpcds.High; b++ {
		if len(bins.Rects[b]) == 0 {
			t.Errorf("band %s empty", b)
		}
	}
	// Mixed stream: 50% inserts, 50% queries (the Figure 8 workload mix).
	rng := rand.New(rand.NewSource(7))
	inserted := uint64(0)
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			if err := cl.InsertNoCtx(gen.Item()); err != nil {
				t.Fatal(err)
			}
			inserted++
		} else {
			band := tpcds.Band(rng.Intn(3))
			if _, err := cl.QueryNoCtx(bins.Pick(rng, band)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil || res.Agg.Count != 4000+inserted {
		t.Fatalf("final count = %v %v, want %d", res, err, 4000+inserted)
	}
}
