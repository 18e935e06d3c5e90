package volap

import (
	"bufio"
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mustRollup parses a rollup spec against a schema or fails the test.
func mustRollup(tb testing.TB, s *Schema, spec string) RollupDef {
	tb.Helper()
	def, err := ParseRollupDef(s, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return def
}

// randRollupDef draws a random valid definition: an independent random
// depth for every dimension.
func randRollupDef(rng *rand.Rand, s *Schema) RollupDef {
	def := RollupDef{Depths: make([]int, s.NumDims())}
	for d := range def.Depths {
		def.Depths[d] = rng.Intn(s.Dim(d).Depth() + 1)
	}
	return def
}

func sameAggregate(a, b Aggregate) bool {
	if a.Count == 0 && b.Count == 0 {
		return true
	}
	return a.Count == b.Count && a.Sum == b.Sum && a.Min == b.Min && a.Max == b.Max
}

// TestRollupEquivalence is the equivalence property test: with random
// rollup configurations, under concurrent ingest (async pipeline),
// balance passes, splits, and worker add/drain migrations, the rollup
// path and the raw tree path agree — bounded during churn, exactly at
// quiescence.
func TestRollupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opts := testOptions(t)
	// Two fixed definitions the assertions rely on, plus random ones.
	opts.Rollups = []RollupDef{
		mustRollup(t, opts.Schema, "all"),
		mustRollup(t, opts.Schema, "A:1"),
		randRollupDef(rng, opts.Schema),
		randRollupDef(rng, opts.Schema),
	}
	opts.MaxShardItems = 400 // balance passes split oversized shards
	opts.MinMoveItems = 64
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

	// issued counts items handed to the cluster, including the
	// in-flight batch: no reader may ever see more than this.
	const total = 3000
	var issued atomic.Uint64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(12))
		for off := 0; off < total; off += 25 {
			batch := make([]Item, 25)
			for i := range batch {
				batch[i] = randItem(wrng, c.Schema())
			}
			issued.Add(25)
			if err := cl.InsertBatchNoCtx(batch); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	// Churn: periodic balance passes (which also split oversized
	// shards), one scale-out, one drain-driven migration wave.
	churnDone := make(chan struct{})
	stopChurn := make(chan struct{})
	defer func() {
		// Reap both goroutines before the cluster shuts down, whatever
		// path exits the test.
		select {
		case <-stopChurn:
		default:
			close(stopChurn)
		}
		<-churnDone
		<-writerDone
	}()
	go func() {
		defer close(churnDone)
		var added string
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if _, err := c.RunBalancePass(); err != nil {
				t.Errorf("balance pass: %v", err)
				return
			}
			if i == 10 {
				id, err := c.AddWorker()
				if err != nil {
					t.Errorf("add worker: %v", err)
					return
				}
				added = id
			}
			if i == 30 && added != "" {
				if _, err := c.DrainWorker(added); err != nil {
					t.Errorf("drain worker: %v", err)
					return
				}
			}
		}
	}()

	// During churn: both paths stay inside the acked window on the full
	// rectangle, and never error.
	all := AllRect(c.Schema())
	for alive := true; alive; {
		select {
		case <-writerDone:
			alive = false
		default:
		}
		for _, opt := range [][]QueryOption{nil, {WithNoRollup()}} {
			res, err := cl.QueryNoCtx(all, opt...)
			if err != nil {
				t.Fatalf("query during churn: %v", err)
			}
			// Mid-churn answers may transiently undercount (a freshly
			// split shard is invisible until the next image sync — the
			// seed's convergence contract), but no item may ever be
			// counted twice: rollup cells (or tree) and insertion buffer
			// partition the data at every instant.
			if after := issued.Load(); res.Agg.Count > after {
				t.Fatalf("count %d exceeds %d issued items; info=%+v", res.Agg.Count, after, res.Info)
			}
		}
		// Random sub-rectangles exercise the race surface of both paths.
		q := randRect(rng, c.Schema())
		if _, err := cl.QueryNoCtx(q); err != nil {
			t.Fatalf("sub-rect query during churn: %v", err)
		}
		if _, err := cl.QueryNoCtx(q, WithNoRollup()); err != nil {
			t.Fatalf("raw sub-rect query during churn: %v", err)
		}
	}
	close(stopChurn)
	<-churnDone
	<-writerDone
	if t.Failed() {
		return
	}

	// Quiescent: both paths converge on the exact total.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := cl.QueryNoCtx(all)
		if err == nil && res.Agg.Count == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup path never converged: %v res=%+v", err, res)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The "all" definition covers the full rectangle: the default path
	// must answer it from rollups alone.
	res, err := cl.QueryNoCtx(all)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Source() != SourceRollup || res.Info.RollupShards == 0 {
		t.Fatalf("full query source = %q (%d rollup shards), want rollup", res.Info.Source(), res.Info.RollupShards)
	}
	raw, err := cl.QueryNoCtx(all, WithNoRollup())
	if err != nil {
		t.Fatal(err)
	}
	if raw.Info.Source() != SourceTree || raw.Info.RollupShards != 0 {
		t.Fatalf("WithNoRollup source = %q (%d rollup shards), want tree", raw.Info.Source(), raw.Info.RollupShards)
	}
	if !sameAggregate(res.Agg, raw.Agg) {
		t.Fatalf("rollup %+v != raw %+v on full rect", res.Agg, raw.Agg)
	}

	// Exact equivalence on random rectangles, covered or not.
	covered := 0
	for i := 0; i < 100; i++ {
		q := randRect(rng, c.Schema())
		res, err := cl.QueryNoCtx(q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cl.QueryNoCtx(q, WithNoRollup())
		if err != nil {
			t.Fatal(err)
		}
		if !sameAggregate(res.Agg, raw.Agg) {
			t.Fatalf("query %v: rollup %+v != raw %+v", q, res.Agg, raw.Agg)
		}
		anyCovers := false
		for _, def := range opts.Rollups {
			if def.Covers(c.Schema(), q) {
				anyCovers = true
				break
			}
		}
		if anyCovers {
			covered++
			if res.Info.RollupShards == 0 {
				t.Fatalf("covered query %v answered without rollups: %+v", q, res.Info)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no test query was rollup-covered; property vacuous")
	}

	// Group-by equivalence on both dimensions at every level, rollup
	// path against forced raw path.
	for dim := 0; dim < c.Schema().NumDims(); dim++ {
		for level := 0; level < c.Schema().Dim(dim).Depth(); level++ {
			res, err := cl.QueryNoCtx(all, WithGroupBy(dim, level))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := cl.QueryNoCtx(all, WithGroupBy(dim, level), WithNoRollup())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != len(raw.Groups) {
				t.Fatalf("group-by %d:%d: %d groups vs %d raw", dim, level, len(res.Groups), len(raw.Groups))
			}
			var sum uint64
			for i := range res.Groups {
				if res.Groups[i].Value != raw.Groups[i].Value || !sameAggregate(res.Groups[i].Agg, raw.Groups[i].Agg) {
					t.Fatalf("group-by %d:%d group %d: %+v vs raw %+v", dim, level, i, res.Groups[i], raw.Groups[i])
				}
				sum += res.Groups[i].Agg.Count
			}
			if sum != total {
				t.Fatalf("group-by %d:%d counts sum to %d, want %d", dim, level, sum, total)
			}
		}
	}
	// The A:1 definition serves dim-0 level-0 grouping from cells alone.
	res, err = cl.QueryNoCtx(all, WithGroupBy(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Source() != SourceRollup {
		t.Fatalf("group-by 0:0 source = %q, want rollup", res.Info.Source())
	}
}

// metricSum sums every series of one metric family in Prometheus text
// output (labelled gauges like rollup_cells{shard="3"} included).
func metricSum(t *testing.T, out, name string) float64 {
	t.Helper()
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestRollupStaleness pins the staleness contract of the async ingest
// pipeline: a rollup-path answer includes every acknowledged item
// immediately (reads merge the insertion buffer on top of the cells),
// and the materialized cells themselves absorb acknowledged items no
// later than the next drain — observable via the rollup_cells gauge.
func TestRollupStaleness(t *testing.T) {
	opts := testOptions(t)
	opts.Rollups = []RollupDef{mustRollup(t, opts.Schema, "all"), mustRollup(t, opts.Schema, "A:1")}
	// No stats tick during the test: the gauges must be set by the
	// drain itself.
	opts.StatsInterval = time.Hour
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

	rng := rand.New(rand.NewSource(21))
	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.InsertNoCtx(randItem(rng, c.Schema())); err != nil {
			t.Fatal(err)
		}
	}
	// Acked ⇒ visible to the rollup path, with zero drain-lag allowance.
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != n {
		t.Fatalf("rollup-path count right after acks = %d, want %d", res.Agg.Count, n)
	}
	if res.Info.Source() != SourceRollup {
		t.Fatalf("source = %q, want rollup", res.Info.Source())
	}

	// Force the drain boundary, then the tables themselves must hold
	// every acked item: a second full drain pass has nothing to add and
	// the cells gauge is stable and nonzero.
	for _, w := range c.workers {
		w.Flush()
	}
	cells := func() float64 {
		var total float64
		for _, w := range c.workers {
			var b bytes.Buffer
			if err := w.Metrics().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			total += metricSum(t, b.String(), "rollup_cells")
		}
		return total
	}
	afterFirst := cells()
	if afterFirst == 0 {
		t.Fatal("rollup_cells still zero after a full drain")
	}
	for _, w := range c.workers {
		w.Flush()
	}
	if again := cells(); again != afterFirst {
		t.Fatalf("rollup_cells moved %v -> %v across an empty drain; staleness exceeded one drain interval", afterFirst, again)
	}
	// Hits were recorded for the rollup-served query above.
	var hits float64
	for _, w := range c.workers {
		var b bytes.Buffer
		if err := w.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		hits += metricSum(t, b.String(), "rollup_hits_total")
	}
	if hits == 0 {
		t.Fatal("rollup_hits_total stayed zero after a rollup-served query")
	}
}

// TestRollupRecoveryRestart kills a worker and restarts it over its
// durable state: rollup tables come back (from snapshot trailers and WAL
// replay) without a raw rescan having to be observable — the restarted
// worker serves rollup-path queries that agree with the raw scan.
func TestRollupRecoveryRestart(t *testing.T) {
	opts := testOptions(t)
	opts.Workers = 2
	opts.Servers = 1
	opts.SessionTTL = time.Second
	opts.Durability = DurabilitySync
	opts.DataDir = t.TempDir()
	opts.Rollups = []RollupDef{mustRollup(t, opts.Schema, "all"), mustRollup(t, opts.Schema, "A:1")}
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(31))
	const n = 2000
	items := make([]Item, n)
	for i := range items {
		items[i] = randItem(rng, c.Schema())
	}
	if err := cl.BulkLoadNoCtx(items); err != nil {
		t.Fatal(err)
	}
	// Checkpoint half the shards so recovery exercises both restore
	// paths: snapshot trailer decode and WAL-replay refold.
	for _, w := range c.workers[:1] {
		for id := ShardID(0); id < 8; id++ {
			_ = w.CheckpointShard(id) // unknown shards error; ignored
		}
	}

	if err := c.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartWorker("w1"); err != nil {
		t.Fatal(err)
	}

	all := AllRect(c.Schema())
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := cl.QueryNoCtx(all)
		if err == nil && !res.Info.Partial() && res.Agg.Count == n {
			if res.Info.Source() != SourceRollup {
				t.Fatalf("post-restart source = %q, want rollup", res.Info.Source())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart query never converged: err=%v res=%+v", err, res)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Equivalence still holds after recovery.
	for i := 0; i < 30; i++ {
		q := randRect(rng, c.Schema())
		res, err := cl.QueryNoCtx(q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := cl.QueryNoCtx(q, WithNoRollup())
		if err != nil {
			t.Fatal(err)
		}
		if !sameAggregate(res.Agg, raw.Agg) {
			t.Fatalf("post-restart query %v: rollup %+v != raw %+v", q, res.Agg, raw.Agg)
		}
	}
	// Grouped queries report complete info after recovery too.
	res, err := cl.QueryNoCtx(all, WithGroupBy(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Partial() {
		t.Fatalf("post-restart group-by partial: %+v", res.Info)
	}
	var sum uint64
	for _, g := range res.Groups {
		sum += g.Agg.Count
	}
	if sum != n {
		t.Fatalf("post-restart group-by sums to %d, want %d", sum, n)
	}
}
