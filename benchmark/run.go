package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	volap "repro"
	"repro/internal/core"
)

// rec collects what one load goroutine observed.
type rec struct {
	lat       [numClasses][]int64 // ns, successful operations only
	attempted [numClasses]int
	failed    [numClasses]int
	rollup    int // queries answered entirely from rollup cells
	partial   int // queries that came back Partial()
}

func (r *rec) add(cls class, d time.Duration, ok bool) {
	r.attempted[cls]++
	if !ok {
		r.failed[cls]++
		return
	}
	r.lat[cls] = append(r.lat[cls], int64(d))
}

func (r *rec) merge(o *rec) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.attempted[c] += o.attempted[c]
		r.failed[c] += o.failed[c]
	}
	r.rollup += o.rollup
	r.partial += o.partial
}

func (r *rec) calls() int {
	n := 0
	for _, a := range r.attempted {
		n += a
	}
	return n
}

// percentile returns the p-quantile (0..1) of the samples in ms, by the
// nearest-rank rule on a sorted copy; 0 when there are none.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e6
}

// pacing is what an open-loop generator records about itself.
type pacing struct {
	lag     []int64 // ns the generator woke after an operation's due time
	backlog []int   // operations already due and unsent when each one was sent
}

// section is one timed stretch of load.
type section struct {
	rec
	wall   time.Duration // first send to last reply
	idleAt time.Duration // first send to the cluster going quiet
	paces  []pacing      // one per paced stream
}

type runner struct {
	cfg  config
	w    *workload
	p    plan
	in   *inputs
	c    *volap.Cluster
	conn [2]*volap.Client
	// nextBatch is the first stream batch not yet sent; cursor the
	// round-robin position of each query class.
	nextBatch int
	cursor    [numClasses]int
	spans     *spanLog // nil unless tracing
}

// insert sends stream batch i on a connection.
func (r *runner) insert(cl *volap.Client, i int) bool {
	return cl.InsertBatch(context.Background(), r.in.batch(i)) == nil
}

// query runs one generated query and checks the answer is whole and
// came from the path the workload is built to exercise.
func (r *runner) query(cl *volap.Client, spec querySpec, into *rec) bool {
	var opts []volap.QueryOption
	if spec.groupBy {
		opts = append(opts, volap.WithGroupBy(spec.dim, spec.level))
	}
	res, err := cl.Query(context.Background(), spec.rect, opts...)
	if err != nil {
		return false
	}
	if res.Info.Partial() {
		into.partial++
		return false
	}
	src := res.Info.Source()
	if src == volap.SourceRollup {
		into.rollup++
	}
	// An empty answer searches no shard and reports the tree.
	return spec.wantSource == "" || src == spec.wantSource || res.Info.ShardsSearched == 0
}

// nextQuery returns the j-th query of the run-wide cycle.
func (r *runner) nextQuery(j int) (class, querySpec) {
	cls := queryClasses[j%len(queryClasses)]
	pool := r.in.pools[cls]
	spec := pool[r.cursor[cls]%len(pool)]
	r.cursor[cls]++
	return cls, spec
}

// closedInserts is the saturating write loop: both connections send
// batches back to back until n are acknowledged, then the cluster drains.
func (r *runner) closedInserts(n int) *section {
	s := &section{}
	recs := make([]rec, len(r.conn))
	first := r.nextBatch
	start := time.Now()
	var wg sync.WaitGroup
	for g, cl := range r.conn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += len(r.conn) {
				t := time.Now()
				ok := r.insert(cl, first+i)
				d := time.Since(t)
				recs[g].add(clsInsert, d, ok)
				r.spans.op(clsInsert, first+i, t, d)
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)
	s.idleAt = waitIdle().Sub(start)
	r.nextBatch += n
	for g := range recs {
		s.merge(&recs[g])
	}
	return s
}

// closedQueries is the saturating read loop: one connection, so a core
// stays free for the cluster.
func (r *runner) closedQueries(cycles int) *section {
	s := &section{}
	start := time.Now()
	for j := 0; j < cycles*len(queryClasses); j++ {
		cls, spec := r.nextQuery(j)
		t := time.Now()
		ok := r.query(r.conn[0], spec, &s.rec)
		d := time.Since(t)
		s.add(cls, d, ok)
		r.spans.op(cls, j, t, d)
	}
	s.wall = time.Since(start)
	s.idleAt = s.wall
	return s
}

// pacedLoop sends n operations on a fixed schedule and times each from
// the moment it was due, so a stall is charged to every operation it
// delays.
func pacedLoop(n int, interval time.Duration, start time.Time, into *rec, pace *pacing, do func(i int) (class, bool)) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if now.Before(due) {
			time.Sleep(due.Sub(now))
			now = time.Now()
			pace.lag = append(pace.lag, int64(now.Sub(due)))
		}
		pace.backlog = append(pace.backlog, int(now.Sub(due)/interval))
		cls, ok := do(i)
		into.add(cls, time.Since(due), ok)
	}
}

// pacedMix is the open loop: connection A inserts, connection B queries.
func (r *runner) pacedMix() *section {
	s := &section{}
	var ins, qry rec
	var insPace, qryPace pacing
	first := r.nextBatch
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pacedLoop(r.p.mainBatches, r.p.insertInterval, start, &ins, &insPace, func(i int) (class, bool) {
			t := time.Now()
			ok := r.insert(r.conn[0], first+i)
			r.spans.op(clsInsert, first+i, t, time.Since(t))
			return clsInsert, ok
		})
	}()
	go func() {
		defer wg.Done()
		pacedLoop(r.p.mainCycles*len(queryClasses), r.p.queryInterval, start, &qry, &qryPace, func(j int) (class, bool) {
			cls, spec := r.nextQuery(j)
			t := time.Now()
			ok := r.query(r.conn[1], spec, &qry)
			r.spans.op(cls, j, t, time.Since(t))
			return cls, ok
		})
	}()
	wg.Wait()
	s.wall = time.Since(start)
	s.idleAt = waitIdle().Sub(start)
	r.nextBatch += r.p.mainBatches
	s.merge(&ins)
	s.merge(&qry)
	s.paces = []pacing{insPace, qryPace}
	return s
}

// backlogGrows reports whether the mean number of due-but-unsent
// operations rose by more than two from the third to the last quarter of
// the stream and ended above four: the paced rate is then above what the
// cluster sustains and latencies measure queue length, not service time.
func backlogGrows(backlog []int) bool {
	q := len(backlog) / 4
	if q < 32 {
		return false // too short a stream to tell a trend from one stall
	}
	mean := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	last := mean(backlog[3*q:])
	return last > 4 && last > mean(backlog[2*q:3*q])+2
}

// boot starts one cluster of the workload's configuration, loads the
// preload in one bulk call (synchronous: nothing is left in an ingest
// buffer) and pushes the image.
func (r *runner) boot(dataDir string) error {
	opts := volap.Options{
		Schema: r.in.schema, Transport: "tcp",
		Workers: 2, ShardsPerWorker: 4, Servers: 1,
		// No balancing and no splits: the shard layout is a function of
		// the seed alone.
		BalanceInterval: -1, MaxShardItems: 0,
		IngestWorkers: 2,
		Durability:    r.w.durability, ReplicationFactor: r.w.replication,
		Rollups: r.in.rollups,
	}
	if r.w.durability != volap.DurabilityOff {
		opts.DataDir = dataDir
	}
	c, err := volap.Start(opts)
	if err != nil {
		return err
	}
	r.c = c
	for i := range r.conn {
		if r.conn[i], err = volap.Connect(c.ServerAddr(0)); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if err := r.conn[0].BulkLoad(ctx, r.in.items[:r.p.preload]); err != nil {
		return err
	}
	if err := r.conn[0].Sync(ctx); err != nil {
		return err
	}
	c.SyncAll()
	if r.w.replication > 1 {
		if _, err := c.RunReplicationPass(); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) shutdown() {
	for i, cl := range r.conn {
		if cl != nil {
			cl.Close()
			r.conn[i] = nil
		}
	}
	if r.c != nil {
		r.c.Stop()
		r.c = nil
	}
}

// result is everything one run measured.
type result struct {
	header    header
	setup     []float64 // seconds, one per boot
	unsteady  []class
	head      *section // quiescent query sweep before the stream; nil on scan
	main      *section
	tailIns   *section // insert burst after the stream; nil on ingest
	cpu       time.Duration
	peakRSS   float64
	mem       [2]runtime.MemStats
	correct   bool
	mismatch  string
	guard     string // non-empty: the open loop was not below capacity
	layers    map[string]metric
	retries   float64
	traceFile string
}

func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, p: makePlan(w, cfg.seconds, cfg.scale)}
	if r.in, err = generate(w, r.p, cfg.seed, cfg.trace); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.spans = &spanLog{}
	}
	res := &result{header: newHeader(cfg, r.p), unsteady: w.unsteadyUnderLoad}
	dataRoot, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	defer r.shutdown()

	// Set-up is repeated and its median reported: one boot is a few
	// seconds of single-shot work and would not repeat within a bound.
	for i := 0; i < setupRepeats; i++ {
		r.shutdown()
		runtime.GC()
		t := time.Now()
		if err := r.boot(filepath.Join(dataRoot, fmt.Sprint(i))); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		res.setup = append(res.setup, time.Since(t).Seconds())
	}

	// The sweep gives the query metrics the stream does not produce
	// steadily a value on the freshly loaded, quiescent cluster.
	if r.p.headCycles > 0 {
		res.head = r.closedQueries(r.p.headCycles)
	}
	waitIdle()
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&res.mem[0])
	cpu0 := cpuTime()
	switch w.stream {
	case closedInsert:
		res.main = r.closedInserts(r.p.mainBatches)
	case closedQuery:
		res.main = r.closedQueries(r.p.mainCycles)
	case paced:
		res.main = r.pacedMix()
		for _, pace := range res.main.paces {
			if backlogGrows(pace.backlog) {
				res.guard = "backlog of due operations grew over the last half of the stream"
			}
		}
	}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&res.mem[1])
	if res.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}

	// The burst gives insert capacity a value where the stream is not
	// itself a saturating write loop.
	if r.p.tailBatches > 0 {
		res.tailIns = r.closedInserts(r.p.tailBatches)
	}
	if cfg.trace {
		if err := r.traced(res); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	res.retries = clientRetries(r.conn[:])
	res.correct, res.mismatch = r.verify(res)
	return res, nil
}

// verify rebuilds the acknowledged items in a linear-scan store and
// compares whole-space, per-band and grouped answers with the cluster's.
func (r *runner) verify(res *result) (bool, string) {
	for _, s := range []*section{res.head, res.main, res.tailIns} {
		if s != nil && s.failed[clsInsert] > 0 {
			return false, "an insert failed, so the acknowledged set is unknown"
		}
	}
	acked := r.in.items[:r.p.preload+r.nextBatch*batchItems]
	oracle, err := core.NewStore(core.Config{Schema: r.in.schema, Store: core.StoreArray})
	if err != nil {
		return false, err.Error()
	}
	if err := oracle.BulkLoad(acked); err != nil {
		return false, err.Error()
	}
	ctx := context.Background()
	check := func(spec querySpec) string {
		if !spec.groupBy {
			got, err := r.conn[0].Query(ctx, spec.rect)
			if err != nil {
				return err.Error()
			}
			if want := oracle.Query(spec.rect); !sameAggregate(got.Agg, want) {
				return fmt.Sprintf("query %v: cluster %v, oracle %v", spec.rect, got.Agg, want)
			}
			return ""
		}
		got, err := r.conn[0].Query(ctx, spec.rect, volap.WithGroupBy(spec.dim, spec.level))
		if err != nil {
			return err.Error()
		}
		span := r.in.schema.Dim(spec.dim).LeavesUnder(spec.level + 1)
		want := map[uint64]core.Aggregate{}
		for _, it := range acked {
			if !spec.rect.ContainsPoint(it.Coords) {
				continue
			}
			v := it.Coords[spec.dim] / span
			agg, ok := want[v]
			if !ok {
				agg = core.NewAggregate()
			}
			agg.AddItem(it.Measure)
			want[v] = agg
		}
		// The server returns every level value of the base interval,
		// empty ones included; the oracle holds only occupied ones.
		occupied := 0
		for _, g := range got.Groups {
			w, ok := want[g.Value]
			if !ok {
				w = core.NewAggregate()
			}
			if !sameAggregate(g.Agg, w) {
				return fmt.Sprintf("group-by %d/%d value %d: cluster %v, oracle %v", spec.dim, spec.level, g.Value, g.Agg, w)
			}
			if g.Agg.Count > 0 {
				occupied++
			}
		}
		if occupied != len(want) {
			return fmt.Sprintf("group-by %d/%d: cluster has %d occupied groups, oracle %d", spec.dim, spec.level, occupied, len(want))
		}
		return ""
	}
	if msg := check(querySpec{rect: volap.AllRect(r.in.schema)}); msg != "" {
		return false, msg
	}
	for _, cls := range queryClasses {
		pool := r.in.pools[cls]
		for i := 0; i < min(len(pool), verifyPerBand); i++ {
			if msg := check(pool[i]); msg != "" {
				return false, msg
			}
		}
	}
	return true, ""
}

// sameAggregate compares counts and extremes exactly and sums to
// rounding: the cluster adds the same measures in another order.
func sameAggregate(a, b core.Aggregate) bool {
	if a.Count != b.Count {
		return false
	}
	if a.Count == 0 {
		return true
	}
	return a.Min == b.Min && a.Max == b.Max &&
		math.Abs(a.Sum-b.Sum) <= 1e-9*math.Max(1, math.Abs(b.Sum))
}
