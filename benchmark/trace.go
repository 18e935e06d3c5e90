package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	volap "repro"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/netmsg"
	"repro/internal/server"
	"repro/internal/worker"
)

// The program has no tracing of its own yet, so spans wrap the calls the
// benchmark makes at each boundary it can reach from outside: the public
// client, the server's RPC port with a pre-encoded payload, and each
// worker's RPC port with the shard lists the server would have sent.
// Layers below a worker's port are probed standalone on the same
// generated inputs.

type span struct {
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"` // index into spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is the untraced run.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, op, parent int, start time.Time, d time.Duration) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = start
	}
	s := int64(start.Sub(l.t0))
	l.spans = append(l.spans, span{Name: name, OpID: op, Parent: parent, Start: s, End: s + int64(d)})
	return len(l.spans) - 1
}

// op records the client-depth span of one stream operation.
func (l *spanLog) op(cls class, id int, start time.Time, d time.Duration) {
	l.add("client."+classNames[cls], id, -1, start, d)
}

// overhead is the share of the main window spent recording spans,
// from a calibration loop run after the measurements.
func (l *spanLog) overhead(window time.Duration) float64 {
	n := len(l.spans)
	probe := &spanLog{}
	t := time.Now()
	for i := 0; i < 1<<16; i++ {
		now := time.Now()
		probe.op(clsInsert, i, now, time.Since(now))
	}
	perSpan := time.Since(t) / (1 << 16)
	return float64(perSpan) * float64(n) / float64(window)
}

func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e3
}

// freeLayers are the per-layer numbers that cost nothing to take, so the
// untraced run prints them too (as diagnostics).
func (res *result) freeLayers() map[string]metric {
	m := map[string]metric{}
	for cls, name := range classNames {
		m["client."+name+"_p99_ms"] = metric{percentile(res.classSource(class(cls)).lat[cls], 0.99), "ms"}
	}
	calls := float64(res.main.calls())
	m["runtime.cpu_us_per_op"] = metric{float64(res.cpu.Microseconds()) / calls, "us"}
	a, b := &res.mem[0], &res.mem[1]
	m["runtime.alloc_bytes_per_op"] = metric{float64(b.TotalAlloc-a.TotalAlloc) / calls, "B"}
	m["runtime.mallocs_per_op"] = metric{float64(b.Mallocs-a.Mallocs) / calls, "count"}
	m["runtime.gc_cycles"] = metric{float64(b.NumGC - a.NumGC), "count"}
	m["runtime.gc_pause_total_ms"] = metric{float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6, "ms"}
	m["client.retries"] = metric{res.retries, "count"}
	queries, partial, rolled := 0, 0, 0
	for _, s := range []*section{res.head, res.main} {
		if s == nil {
			continue
		}
		for _, cls := range queryClasses {
			queries += s.attempted[cls]
		}
		partial += s.partial
		rolled += s.rollup
	}
	m["server.partial_queries"] = metric{float64(partial), "count"}
	m["server.rollup_routed_frac"] = metric{float64(rolled) / float64(queries), "ratio"}
	return m
}

// pacingDiagnostics reports how late the open-loop generators ran and
// the under-load medians that are too unsteady to gate. They are not
// BENCHMARK.json metrics because not every workload has them.
func (res *result) pacingDiagnostics() map[string]metric {
	m := map[string]metric{}
	for _, cls := range res.unsteady {
		m["client."+classNames[cls]+"_load_p50_ms"] = metric{percentile(res.main.lat[cls], 0.5), "ms"}
	}
	var lag []int64
	worst := 0
	for _, pace := range res.main.paces {
		lag = append(lag, pace.lag...)
		for _, b := range pace.backlog {
			worst = max(worst, b)
		}
	}
	if len(lag) > 0 {
		m["client.sched_lag_p99_ms"] = metric{percentile(lag, 0.99), "ms"}
		m["client.backlog_max"] = metric{float64(worst), "count"}
	}
	return m
}

// clientRetries sums the reconnects the sessions' transports counted.
func clientRetries(conns []*volap.Client) float64 {
	total := 0.0
	for _, cl := range conns {
		for _, fam := range cl.Metrics().Snapshot() {
			if fam.Name == "netmsg_reconnects_total" || fam.Name == "netmsg_dial_failures_total" {
				for _, s := range fam.Series {
					total += s.Value
				}
			}
		}
	}
	return total
}

// shardView is the cluster's shard placement as the coordination store
// publishes it after a forced image sync.
type shardView struct {
	metas   []*image.ShardMeta
	workers map[string]*netmsg.Client // by worker ID
	server  *netmsg.Client
}

func (v *shardView) close() {
	for _, c := range v.workers {
		c.Close()
	}
	if v.server != nil {
		v.server.Close()
	}
}

func (r *runner) shardView() (*shardView, error) {
	r.c.SyncAll()
	store := r.c.CoordStore()
	names, err := store.Children(image.PathShards)
	if err != nil {
		return nil, err
	}
	v := &shardView{workers: map[string]*netmsg.Client{}}
	for _, name := range names {
		b, _, err := store.Get(image.PathShards + "/" + name)
		if err != nil {
			return nil, err
		}
		meta, err := image.DecodeShardMetaBytes(b)
		if err != nil {
			return nil, err
		}
		v.metas = append(v.metas, meta)
		if _, ok := v.workers[meta.Worker]; ok {
			continue
		}
		wb, _, err := store.Get(image.WorkerPath(meta.Worker))
		if err != nil {
			return nil, err
		}
		wm, err := image.DecodeWorkerMetaBytes(wb)
		if err != nil {
			return nil, err
		}
		if v.workers[meta.Worker], err = netmsg.Dial(wm.Addr); err != nil {
			return nil, err
		}
	}
	sort.Slice(v.metas, func(i, j int) bool { return v.metas[i].ID < v.metas[j].ID })
	if v.server, err = netmsg.Dial(r.c.ServerAddr(0)); err != nil {
		return nil, err
	}
	return v, nil
}

// shardsFor lists, per owning worker, the shards whose published key
// touches q — the fan-out the server's local image produces.
func (v *shardView) shardsFor(q volap.Rect) map[string][]image.ShardID {
	out := map[string][]image.ShardID{}
	for _, m := range v.metas {
		if m.Key.OverlapsRect(q) {
			out[m.Worker] = append(out[m.Worker], m.ID)
		}
	}
	return out
}

// pickRollup mirrors the server's choice of the cheapest covering
// definition (-1 = tree), so worker-depth probes ask what the server asks.
func (in *inputs) pickRollup(spec querySpec) int {
	groupDim, groupDepth := -1, 0
	if spec.groupBy {
		groupDim, groupDepth = spec.dim, spec.level+1
	}
	best, bestCells := -1, uint64(0)
	for i, def := range in.rollups {
		if groupDim >= 0 && def.Depths[groupDim] < groupDepth {
			continue
		}
		if !def.Covers(in.schema, spec.rect) {
			continue
		}
		if c := def.CellsIn(in.schema, spec.rect); best < 0 || c < bestCells {
			best, bestCells = i, c
		}
	}
	return best
}

// request is one pre-encoded worker RPC of a fan-out.
type request struct {
	worker  string
	payload []byte
}

// fanOut sends the requests at once, as the server does, and returns
// when the slowest has answered, recording one span per request.
func (r *runner) fanOut(v *shardView, op string, reqs []request, id, parent int) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			_, errs[i] = v.workers[req.worker].RequestCtx(context.Background(), op, req.payload)
			r.spans.add(op+"@"+req.worker, id, parent, t, time.Since(t))
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// depth is the three nested latencies of one probed operation.
type depth struct{ client, server, worker time.Duration }

// probeQuery issues one query at the three depths, back to back.
func (r *runner) probeQuery(v *shardView, cls class, spec querySpec, id int) (depth, error) {
	ctx := context.Background()
	var d depth
	var sink rec
	t := time.Now()
	if !r.query(r.conn[0], spec, &sink) {
		return d, fmt.Errorf("%s probe failed at client depth", classNames[cls])
	}
	d.client = time.Since(t)
	top := r.spans.add("client."+classNames[cls], id, -1, t, d.client)

	op, payload := "server.query", server.EncodeQueryRequest(spec.rect, server.QueryOptions{})
	if spec.groupBy {
		op, payload = "server.groupby", server.EncodeGroupByRequest(spec.rect, spec.dim, spec.level)
	}
	t = time.Now()
	if _, err := v.server.RequestCtx(ctx, op, payload); err != nil {
		return d, err
	}
	d.server = time.Since(t)
	mid := r.spans.add("server."+classNames[cls], id, top, t, d.server)

	defIdx := r.in.pickRollup(spec)
	op = "worker.query"
	if spec.groupBy {
		op = "worker.groupby"
	}
	var reqs []request
	for wid, ids := range v.shardsFor(spec.rect) {
		payload := worker.EncodeQueryRequestRollup(spec.rect, ids, defIdx)
		if spec.groupBy {
			payload = worker.EncodeGroupByRequest(spec.rect, spec.dim, spec.level, ids, defIdx)
		}
		reqs = append(reqs, request{wid, payload})
	}
	var err error
	d.worker, err = r.fanOut(v, op, reqs, id, mid)
	return d, err
}

// probeInsert sends three consecutive stream batches, one per depth, so
// no batch is applied twice. At worker depth only items that already lie
// inside a shard's published key go direct (the server's image then
// still routes queries to them); the rest are returned for the caller to
// send through the client.
func (r *runner) probeInsert(v *shardView, id int) (depth, []core.Item, error) {
	ctx := context.Background()
	dims := r.in.schema.NumDims()
	var d depth
	t := time.Now()
	if !r.insert(r.conn[0], r.nextBatch) {
		return d, nil, fmt.Errorf("insert probe failed at client depth")
	}
	d.client = time.Since(t)
	top := r.spans.add("client.insert", id, -1, t, d.client)

	payload := server.EncodeItems(dims, r.in.batch(r.nextBatch+1))
	t = time.Now()
	if _, err := v.server.RequestCtx(ctx, "server.insert", payload); err != nil {
		return d, nil, err
	}
	d.server = time.Since(t)
	mid := r.spans.add("server.insert", id, top, t, d.server)

	// One request per shard, as the server sends them.
	groups := map[*image.ShardMeta][]core.Item{}
	var rest []core.Item
items:
	for _, it := range r.in.batch(r.nextBatch + 2) {
		for _, m := range v.metas {
			if m.Key.ContainsPoint(it.Coords) {
				groups[m] = append(groups[m], it)
				continue items
			}
		}
		rest = append(rest, it)
	}
	r.nextBatch += 3
	var reqs []request
	for m, items := range groups {
		reqs = append(reqs, request{m.Worker, worker.EncodeInsertRequest(m.ID, dims, items)})
	}
	var err error
	d.worker, err = r.fanOut(v, "worker.insert", reqs, id, mid)
	return d, rest, err
}

// traced runs the depth probes on the quiescent cluster and the
// standalone leaf probes, fills res.layers and writes the span file.
func (r *runner) traced(res *result) error {
	v, err := r.shardView()
	if err != nil {
		return err
	}
	defer v.close()
	m := res.freeLayers()
	m["trace.overhead_frac"] = metric{r.spans.overhead(res.main.wall), "ratio"}

	var byClass [numClasses][]depth
	var rest []core.Item
	for i := 0; i < r.p.depthBlocks; i++ {
		d, left, err := r.probeInsert(v, i)
		if err != nil {
			return err
		}
		byClass[clsInsert] = append(byClass[clsInsert], d)
		rest = append(rest, left...)
	}
	if len(rest) > 0 {
		if err := r.conn[0].InsertBatch(context.Background(), rest); err != nil {
			return err
		}
	}
	waitIdle()
	for _, cls := range queryClasses {
		for i := 0; i < r.p.depthBlocks; i++ {
			pool := r.in.pools[cls]
			d, err := r.probeQuery(v, cls, pool[i%len(pool)], i)
			if err != nil {
				return err
			}
			byClass[cls] = append(byClass[cls], d)
		}
	}
	pick := func(classes []class, f func(depth) time.Duration) float64 {
		var ds []time.Duration
		for _, cls := range classes {
			for _, d := range byClass[cls] {
				ds = append(ds, f(d))
			}
		}
		return medianUS(ds)
	}
	clientSelf := func(d depth) time.Duration { return d.client - d.server }
	serverSelf := func(d depth) time.Duration { return d.server - d.worker }
	workerTime := func(d depth) time.Duration { return d.worker }
	plain := []class{clsLow, clsMed, clsHigh}
	m["client.self_us"] = metric{pick(queryClasses[:], clientSelf), "us"}
	m["server.insert_self_us"] = metric{pick([]class{clsInsert}, serverSelf), "us"}
	m["server.query_self_us"] = metric{pick(plain, serverSelf), "us"}
	m["server.groupby_self_us"] = metric{pick([]class{clsGroupBy}, serverSelf), "us"}
	for cls, name := range classNames {
		m["worker."+name+"_us"] = metric{pick([]class{class(cls)}, workerTime), "us"}
	}
	for _, cls := range plain {
		total := 0
		for _, spec := range r.in.pools[cls] {
			for _, ids := range v.shardsFor(spec.rect) {
				total += len(ids)
			}
		}
		m["image.shards_per_query_"+bandNames[cls]] = metric{float64(total) / float64(len(r.in.pools[cls])), "count"}
	}

	if err := r.leafProbes(v, m); err != nil {
		return err
	}
	res.layers = m
	res.traceFile = filepath.Join(r.cfg.outDir, "trace-"+r.w.name+".json")
	return writeJSON(res.traceFile, struct {
		Header header `json:"header"`
		Spans  []span `json:"spans"`
	}{res.header, r.spans.spans})
}
