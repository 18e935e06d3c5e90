// Package server implements VOLAP's server nodes (§III-A/§III-B/§III-C):
// the client-facing tier. Each server keeps a local image — a modified PDC
// tree over shard bounding boxes plus worker address tables — routes
// every insertion and aggregate query to the right workers, scatter-
// gathers partial aggregates, and synchronizes its local image with the
// global image in the coordination service at a configurable rate
// (default 3 s in the paper's experiments).
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/netmsg"
	"repro/internal/wire"
	"repro/internal/worker"
)

// Typed errors of the request pipeline. They cross the RPC boundary as
// message text, so keep the strings stable: the client maps them back to
// the same sentinels (see volap's error mapping).
var (
	// ErrUnavailable means the operation exhausted its retry budget:
	// some shard stayed unreachable across image refreshes. Retry later.
	ErrUnavailable = errors.New("volap: unavailable")
	// ErrStaleRoute classifies one failed attempt: the contacted worker
	// no longer owns the shard. The pipeline refreshes the image and
	// retries; callers only see it wrapped inside ErrUnavailable.
	ErrStaleRoute = errors.New("volap: stale route")
	// ErrWorkerDown fails an insert fast when the target shard's owner
	// has been declared dead (its coord session expired and its
	// registration vanished). Unlike ErrUnavailable it is returned
	// without burning the retry budget: the image has already told us
	// nobody is home.
	ErrWorkerDown = errors.New("volap: worker down")
)

// Options configures a server.
type Options struct {
	ID           string
	Coord        coord.Coordinator
	SyncInterval time.Duration // local-image push rate; paper default 3 s

	// RequestTimeout bounds each client-facing operation end to end,
	// including all worker RPCs and retries (default 10 s). Operations
	// whose context already carries a deadline keep it.
	RequestTimeout time.Duration
	// MaxRetries is how many times a shard group is re-sent after an
	// image refresh before the operation fails with ErrUnavailable
	// (default 3).
	MaxRetries int

	// Metrics receives the server's instrumentation. When nil the server
	// creates a private registry (reachable via Metrics()).
	Metrics *metrics.Registry

	// Fault, when non-nil, intercepts every worker-bound dial and frame
	// for chaos testing (see netmsg.FaultInjector). Production deploys
	// leave it nil.
	Fault *netmsg.FaultInjector
}

// Server is one server node.
type Server struct {
	id         string
	co         coord.Coordinator
	cfg        *image.ClusterConfig
	idx        *image.Index
	sync       time.Duration
	reqTimeout time.Duration
	maxRetries int

	srv  *netmsg.Server
	addr string

	mu      sync.RWMutex
	owners  map[image.ShardID]string     // shard -> worker ID
	workers map[string]*image.WorkerMeta // worker ID -> meta
	down    map[string]struct{}          // workers whose registration vanished
	conns   map[string]*netmsg.Client    // worker addr -> client
	dirty   map[image.ShardID]struct{}   // locally grown shards awaiting push

	fault *netmsg.FaultInjector

	watcher   *coord.Watcher
	stopSync  chan struct{}
	syncWg    sync.WaitGroup
	closeOnce sync.Once

	// Staleness instrumentation for the freshness study (Figure 10) and
	// for the retry pipeline.
	statMu       sync.Mutex
	syncPushes   uint64
	watchEvents  uint64
	staleRetries uint64 // forced image refreshes after stale/transport errors

	// observability
	reg      *metrics.Registry
	trace    *metrics.TraceLog
	opLat    *metrics.HistogramVec // server_op_seconds{op}
	retries  *metrics.CounterVec   // server_retries_total{op}
	routes   *metrics.CounterVec   // server_routes_total{op}
	unavail  *metrics.Counter      // server_unavailable_total
	inflight *metrics.Gauge        // server_inflight_ops
	partials *metrics.Counter      // server_partial_queries_total
	downErrs *metrics.Counter      // server_worker_down_total

	rollupRouted *metrics.Counter // server_rollup_routed_total
}

// New builds a server, loads the global image, and starts watching for
// remote changes. Call Listen to expose the client RPC surface.
func New(opts Options) (*Server, error) {
	if opts.Coord == nil {
		return nil, errors.New("server: coordinator required")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 3 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	raw, _, err := opts.Coord.Get(image.PathConfig)
	if err != nil {
		return nil, fmt.Errorf("server: cluster config: %w", err)
	}
	cfg, err := image.DecodeClusterConfigBytes(raw)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		id:         opts.ID,
		co:         opts.Coord,
		cfg:        cfg,
		sync:       opts.SyncInterval,
		reqTimeout: opts.RequestTimeout,
		maxRetries: opts.MaxRetries,
		idx:        image.NewIndex(cfg.Schema, cfg.Keys, cfg.MDSCap, 8),
		owners:     make(map[image.ShardID]string),
		workers:    make(map[string]*image.WorkerMeta),
		down:       make(map[string]struct{}),
		conns:      make(map[string]*netmsg.Client),
		dirty:      make(map[image.ShardID]struct{}),
		fault:      opts.Fault,
		reg:        reg,
		trace:      metrics.NewTraceLog(0),
		opLat:      reg.Histogram("server_op_seconds", "op"),
		retries:    reg.Counter("server_retries_total", "op"),
		routes:     reg.Counter("server_routes_total", "op"),
		unavail:    reg.Counter("server_unavailable_total").With(),
		inflight:   reg.Gauge("server_inflight_ops").With(),
		partials:   reg.Counter("server_partial_queries_total").With(),
		downErrs:   reg.Counter("server_worker_down_total").With(),
	}
	s.rollupRouted = reg.Counter("server_rollup_routed_total").With()
	reg.GaugeFunc("server_down_workers", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.down))
	})
	reg.CounterFunc("server_sync_pushes_total", func() uint64 { p, _ := s.SyncStats(); return p })
	reg.CounterFunc("server_watch_events_total", func() uint64 { _, e := s.SyncStats(); return e })
	reg.CounterFunc("server_refreshes_total", func() uint64 { return s.RetryStats() })

	// Bootstrap the local image from a consistent snapshot, then follow
	// the event stream from the snapshot's cursor (no gap, no replay).
	snap, cursor := s.co.Snapshot(image.PathRoot)
	for path, data := range snap {
		s.applyNode(path, data)
	}
	s.watcher = coord.NewWatcher(s.co, image.PathRoot, cursor, s.onEvent, s.onReset)

	s.stopSync = make(chan struct{})
	s.syncWg.Add(1)
	go s.syncLoop()
	return s, nil
}

// Config returns the cluster configuration.
func (s *Server) Config() *image.ClusterConfig { return s.cfg }

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// Addr returns the bound client-facing address.
func (s *Server) Addr() string { return s.addr }

// NumShards returns the number of shards in the local image.
func (s *Server) NumShards() int { return s.idx.NumShards() }

// Metrics returns the server's metric registry (for the /metrics
// endpoint and tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Trace returns the server's recent trace events.
func (s *Server) Trace() *metrics.TraceLog { return s.trace }

// traceAdd records one trace event if the context carries a trace ID.
func (s *Server) traceAdd(ctx context.Context, op, detail string) {
	if id := netmsg.TraceIDFrom(ctx); id != 0 {
		s.trace.Add(id, "server/"+s.id, op, detail)
	}
}

// instrument wraps one client-facing op with latency, in-flight, route
// counters, and a trace event.
func (s *Server) instrument(ctx context.Context, op string) func() {
	s.traceAdd(ctx, op, "")
	s.routes.Inc(op)
	s.inflight.Add(1)
	stop := s.opLat.With(op).Time()
	return func() {
		stop()
		s.inflight.Add(-1)
	}
}

// applyNode folds one global-image node into the local image.
func (s *Server) applyNode(path string, data []byte) {
	if id, ok := image.ParseShardPath(path); ok {
		if data == nil {
			return
		}
		meta, err := image.DecodeShardMetaBytes(data)
		if err != nil {
			return
		}
		if s.idx.Has(id) {
			// §III-C: a remote expansion is applied bottom-up through the
			// leaf map rather than by searching the tree.
			s.idx.ExpandLeaf(id, meta.Key, meta.Count)
		} else {
			_ = s.idx.AddShard(id, meta.Key)
		}
		s.mu.Lock()
		s.owners[id] = meta.Worker
		s.mu.Unlock()
		return
	}
	if len(path) > len(image.PathWorkers)+1 && path[:len(image.PathWorkers)+1] == image.PathWorkers+"/" {
		if data == nil {
			return
		}
		meta, err := image.DecodeWorkerMetaBytes(data)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.workers[meta.ID] = meta
		delete(s.down, meta.ID) // a (re)registration revives the worker
		s.mu.Unlock()
	}
}

// onEvent handles one watch notification.
func (s *Server) onEvent(ev coord.Event) {
	s.statMu.Lock()
	s.watchEvents++
	s.statMu.Unlock()
	if ev.Type == coord.EventDeleted {
		// Shards are never deleted from the image, but worker
		// registrations are ephemeral: a deletion is a session expiry
		// (crash) or a graceful deregistration. Either way the worker is
		// gone until it re-registers.
		if id, ok := image.ParseWorkerPath(ev.Path); ok {
			s.markWorkerDown(id)
		}
		return
	}
	s.applyNode(ev.Path, ev.Data)
}

// markWorkerDown records a dead worker and drops its cached connection
// so in-flight requests fail immediately instead of waiting out their
// deadlines.
func (s *Server) markWorkerDown(id string) {
	s.mu.Lock()
	if _, already := s.down[id]; already {
		s.mu.Unlock()
		return
	}
	s.down[id] = struct{}{}
	var conn *netmsg.Client
	if meta := s.workers[id]; meta != nil {
		if c, ok := s.conns[meta.Addr]; ok {
			conn = c
			delete(s.conns, meta.Addr)
		}
	}
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// isWorkerDown reports whether the worker's registration is gone.
func (s *Server) isWorkerDown(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, down := s.down[id]
	return down
}

// onReset rebuilds from a fresh snapshot after event-log compaction.
// Workers we knew that are absent from the snapshot died while the
// event log was compacted away; mark them down so routing degrades
// instead of timing out.
func (s *Server) onReset(snap map[string][]byte) {
	for path, data := range snap {
		s.applyNode(path, data)
	}
	s.mu.RLock()
	var lost []string
	for id := range s.workers {
		if _, ok := snap[image.WorkerPath(id)]; !ok {
			lost = append(lost, id)
		}
	}
	s.mu.RUnlock()
	for _, id := range lost {
		s.markWorkerDown(id)
	}
}

// workerClient returns (dialing if needed) a connection to a worker.
func (s *Server) workerClient(workerID string) (*netmsg.Client, error) {
	s.mu.RLock()
	meta := s.workers[workerID]
	var c *netmsg.Client
	if meta != nil {
		c = s.conns[meta.Addr]
	}
	s.mu.RUnlock()
	if meta == nil {
		return nil, fmt.Errorf("server %s: unknown worker %q", s.id, workerID)
	}
	if c != nil {
		return c, nil
	}
	c, err := netmsg.DialOptions(meta.Addr, netmsg.DialOpts{
		DefaultTimeout: s.reqTimeout, Metrics: s.reg,
		Fault: s.fault, Party: "server/" + s.id,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prev, ok := s.conns[meta.Addr]; ok {
		s.mu.Unlock()
		c.Close()
		return prev, nil
	}
	s.conns[meta.Addr] = c
	s.mu.Unlock()
	return c, nil
}

// opCtx applies the server's RequestTimeout to operations whose context
// carries no deadline of its own.
func (s *Server) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.reqTimeout)
}

// errClass buckets a worker RPC failure for the retry pipeline.
type errClass int

const (
	classFatal     errClass = iota // handler bug, validation, timeout: do not retry
	classStale                     // shard not where the image says: refresh and retry
	classTransport                 // connection-level failure: refresh and retry
)

// classifyWorkerErr decides whether a failed worker RPC is worth an
// image refresh + retry. Deadline expiry and cancellation are terminal —
// the whole point of the pipeline is to stay inside the caller's bound.
func classifyWorkerErr(err error) errClass {
	switch {
	case err == nil:
		return classFatal
	case errors.Is(err, netmsg.ErrTimeout), errors.Is(err, context.Canceled):
		return classFatal
	}
	var re *netmsg.RemoteError
	if errors.As(err, &re) {
		if worker.IsStaleRouteMsg(re.Msg) {
			return classStale
		}
		return classFatal
	}
	// Everything else is connection-level: dial failures, ErrConnLost,
	// ErrClosed, or an unknown-worker route from a pre-refresh image.
	return classTransport
}

// refreshShard force-reloads one shard's global record (and its owner's
// worker record) from the coordination service — the server-side half of
// §III-E's "servers refresh their image and retry". The watcher would
// deliver the same update eventually; a failed RPC is evidence we cannot
// afford to wait.
func (s *Server) refreshShard(id image.ShardID) {
	s.statMu.Lock()
	s.staleRetries++
	s.statMu.Unlock()
	raw, _, err := s.co.Get(image.ShardPath(id))
	if err != nil {
		return
	}
	s.applyNode(image.ShardPath(id), raw)
	meta, err := image.DecodeShardMetaBytes(raw)
	if err != nil {
		return
	}
	if wraw, _, err := s.co.Get(image.WorkerPath(meta.Worker)); err == nil {
		s.applyNode(image.WorkerPath(meta.Worker), wraw)
	}
}

// RetryStats returns how many forced image refreshes the retry pipeline
// performed.
func (s *Server) RetryStats() (staleRetries uint64) {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.staleRetries
}

// retryBackoff sleeps a capped, jittered exponential backoff, honoring
// the context. It returns the doubled delay for the next round.
func retryBackoff(ctx context.Context, delay time.Duration) (time.Duration, error) {
	sleep := delay/2 + time.Duration(rand.Int63n(int64(delay)))
	select {
	case <-ctx.Done():
		return delay, ctxErr(ctx.Err())
	case <-time.After(sleep):
	}
	if delay *= 2; delay > 100*time.Millisecond {
		delay = 100 * time.Millisecond
	}
	return delay, nil
}

// ctxErr maps context termination onto the pipeline's error set.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return netmsg.ErrTimeout
	}
	return err
}

// Insert routes one item to its shard's worker (§III-B: the local image
// finds the relevant shard and worker address).
func (s *Server) Insert(ctx context.Context, it core.Item) error {
	return s.InsertBatch(ctx, []core.Item{it})
}

// InsertBatch routes a batch, grouping items per shard.
func (s *Server) InsertBatch(ctx context.Context, items []core.Item) error {
	return s.routeAndSend(ctx, items, false)
}

// BulkLoad routes a large batch using the workers' bulk path.
func (s *Server) BulkLoad(ctx context.Context, items []core.Item) error {
	return s.routeAndSend(ctx, items, true)
}

// routeAndSend groups items per shard through the local image, then fans
// the groups out to their workers in parallel — the mirror image of the
// scatter-gather Query path, so a batch spanning N workers costs one
// round trip, not N (§IV-C).
func (s *Server) routeAndSend(ctx context.Context, items []core.Item, bulk bool) error {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	op := "insert"
	if bulk {
		op = "bulkload"
	}
	defer s.instrument(ctx, op)()
	groups := make(map[image.ShardID][]core.Item)
	for _, it := range items {
		if err := s.cfg.Schema.ValidatePoint(it.Coords); err != nil {
			return err
		}
		id, grew, err := s.idx.RouteInsert(it.Coords)
		if err != nil {
			return err
		}
		if grew {
			s.mu.Lock()
			s.dirty[id] = struct{}{}
			s.mu.Unlock()
		}
		groups[id] = append(groups[id], it)
	}
	errs := make(chan error, len(groups))
	var wg sync.WaitGroup
	for id, group := range groups {
		wg.Add(1)
		go func(id image.ShardID, group []core.Item) {
			defer wg.Done()
			if err := s.sendShardGroup(ctx, id, group, bulk); err != nil {
				errs <- err
				return
			}
			s.mu.Lock()
			s.dirty[id] = struct{}{} // counts changed; sync will refresh size
			s.mu.Unlock()
		}(id, group)
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel is empty
}

// sendShardGroup delivers one shard's items, refreshing the image and
// retrying with capped backoff when the route turns out to be stale or
// the worker's connection fails. Bounded attempts; then ErrUnavailable.
func (s *Server) sendShardGroup(ctx context.Context, id image.ShardID, items []core.Item, bulk bool) error {
	op := "worker.insert"
	if bulk {
		op = "worker.bulkload"
	}
	payload := worker.EncodeInsertRequest(id, s.cfg.Schema.NumDims(), items)
	var lastErr error
	delay := 5 * time.Millisecond
	for attempt := 0; attempt <= s.maxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Inc(op)
			s.traceAdd(ctx, op+".retry", fmt.Sprintf("shard %d attempt %d", id, attempt))
			s.refreshShard(id)
			var err error
			if delay, err = retryBackoff(ctx, delay); err != nil {
				return err
			}
		}
		// Fail fast instead of burning the retry budget on a worker the
		// image already declared dead.
		owner, down := s.liveOwner(id, true)
		if down {
			s.downErrs.Inc()
			s.traceAdd(ctx, op+".down", fmt.Sprintf("shard %d worker %s", id, owner))
			return fmt.Errorf("%w: shard %d (worker %s)", ErrWorkerDown, id, owner)
		}
		c, err := s.workerClient(owner)
		if err != nil {
			lastErr = err
			continue // a refresh may reveal the new owner or address
		}
		_, err = c.RequestCtx(ctx, op, payload)
		if err == nil {
			return nil
		}
		switch classifyWorkerErr(err) {
		case classStale:
			lastErr = fmt.Errorf("%w: shard %d: %v", ErrStaleRoute, id, err)
		case classTransport:
			lastErr = err
		default:
			return ctxErr(err)
		}
	}
	s.unavail.Inc()
	return fmt.Errorf("%w: shard %d after %d attempts: %v", ErrUnavailable, id, s.maxRetries+1, lastErr)
}

// QueryOptions tunes one query's read path.
type QueryOptions struct {
	// NoRollup forces the raw tree path even when a materialized rollup
	// covers the query (exact-path benchmarking, debugging).
	NoRollup bool
}

// QueryInfo describes the work a distributed query performed.
type QueryInfo struct {
	ShardsConsidered int // shards whose box touched the query
	ShardsSearched   int // shards that answered, whether or not anything matched
	WorkersContacted int
	// MissingShards lists shards whose data could not be reached (dead
	// or unreachable workers) and is therefore absent from the
	// aggregate. Empty on a complete answer. A query with missing
	// shards but at least one live contribution returns the partial
	// aggregate with a nil error; callers decide whether partial is
	// acceptable by checking Partial().
	MissingShards []image.ShardID
	// RollupShards counts the searched shards answered from a
	// materialized rollup table instead of their tree; RollupCells the
	// rollup cells those answers merged.
	RollupShards int
	RollupCells  uint64
}

// Partial reports whether the aggregate is missing any shard's data.
func (qi QueryInfo) Partial() bool { return len(qi.MissingShards) > 0 }

// Answer sources reported by QueryInfo.Source.
const (
	SourceTree   = "tree"
	SourceRollup = "rollup"
	SourceMixed  = "mixed"
)

// Source names the data path that produced the answer: SourceRollup
// when every searched shard answered from a materialized rollup table,
// SourceTree when none did, SourceMixed otherwise.
func (qi QueryInfo) Source() string {
	switch {
	case qi.RollupShards == 0:
		return SourceTree
	case qi.RollupShards >= qi.ShardsSearched:
		return SourceRollup
	default:
		return SourceMixed
	}
}

// Query scatter-gathers an aggregate query across the workers owning the
// overlapping shards (§III-B) and merges the partial aggregates; scatter
// holds the retry and degradation policy. A query that routes to no
// shard returns the empty aggregate at once.
func (s *Server) Query(ctx context.Context, q keys.Rect, opts QueryOptions) (core.Aggregate, QueryInfo, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	defer s.instrument(ctx, "query")()
	if err := s.checkImage(); err != nil {
		return core.NewAggregate(), QueryInfo{}, err
	}
	shards := s.idx.RouteQuery(q)
	info := QueryInfo{ShardsConsidered: len(shards)}
	agg := core.NewAggregate()
	if len(shards) == 0 {
		return agg, info, nil
	}
	defIdx := -1
	if !opts.NoRollup {
		defIdx = s.pickRollup(q, -1, 0)
	}
	err := s.scatter(ctx, "worker.query", shards, &info,
		func(ids []image.ShardID) []byte { return worker.EncodeQueryRequestRollup(q, ids, defIdx) },
		func(resp []byte) error {
			rep, err := worker.DecodeQueryReply(resp)
			if err != nil {
				return err
			}
			agg.Merge(rep.Agg)
			info.ShardsSearched += int(rep.ShardsSearched)
			info.RollupShards += int(rep.RollupShards)
			info.RollupCells += rep.RollupCells
			return nil
		})
	if err != nil {
		return core.NewAggregate(), info, err
	}
	return agg, info, nil
}

// checkImage fails a read with ErrUnavailable while the server's image
// holds no shard at all (say, before the first sync, or after the
// coordinator lost its records): an empty answer then would pass for
// an empty database. A read that merely misses every shard key is
// answered empty.
func (s *Server) checkImage() error {
	if s.idx.NumShards() > 0 {
		return nil
	}
	s.unavail.Inc()
	return fmt.Errorf("%w: the image holds no shards", ErrUnavailable)
}

// pickRollup returns the index of the cheapest configured rollup
// definition (fewest cells inside q) whose grid covers q, or -1 when
// none does. When groupDim >= 0 the definition must additionally retain
// that dimension at depth groupDepth or deeper, so rollup cells fall
// entirely inside one group.
func (s *Server) pickRollup(q keys.Rect, groupDim, groupDepth int) int {
	best, bestCells := -1, uint64(0)
	for i, def := range s.cfg.Rollups {
		if groupDim >= 0 && def.Depths[groupDim] < groupDepth {
			continue
		}
		if !def.Covers(s.cfg.Schema, q) {
			continue
		}
		c := def.CellsIn(s.cfg.Schema, q)
		if best < 0 || c < bestCells {
			best, bestCells = i, c
		}
	}
	return best
}

// GroupBy runs one aggregate per child value of the given dimension and
// level within the base region: the OLAP roll-up/drill-down primitive.
// Level l must be a valid level index of the dimension (0-based); the
// base rectangle's interval in that dimension must cover the grouped
// values' parent region (typically the All interval). The result holds
// every level value inside the base interval, empty ones included; that
// interval is clamped to the dimension's leaves, and one empty there is
// an error (see worker.CheckGroupBy).
//
// One worker.groupby RPC per owning worker folds all its shards' groups
// — from a covering rollup table where the configuration has one,
// otherwise from the trees. Retries and degradation are Query's (see
// scatter).
func (s *Server) GroupBy(ctx context.Context, base keys.Rect, dim, level int, opts QueryOptions) ([]GroupResult, QueryInfo, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	defer s.instrument(ctx, "groupby")()
	base, span, err := worker.CheckGroupBy(s.cfg.Schema, base, dim, level)
	if err != nil {
		return nil, QueryInfo{}, fmt.Errorf("server: %w", err)
	}
	if err := s.checkImage(); err != nil {
		return nil, QueryInfo{}, err
	}
	defIdx := -1
	if !opts.NoRollup {
		defIdx = s.pickRollup(base, dim, level+1)
	}
	shards := s.idx.RouteQuery(base)
	info := QueryInfo{ShardsConsidered: len(shards)}
	groups := make(map[uint64]core.Aggregate)
	err = s.scatter(ctx, "worker.groupby", shards, &info,
		func(ids []image.ShardID) []byte { return worker.EncodeGroupByRequest(base, dim, level, ids, defIdx) },
		func(resp []byte) error {
			rep, err := worker.DecodeGroupByReply(resp)
			if err != nil {
				return err
			}
			for v, agg := range rep.Groups {
				core.MergeGroup(groups, v, agg)
			}
			info.ShardsSearched += int(rep.ShardsSearched)
			info.RollupShards += int(rep.RollupShards)
			info.RollupCells += rep.RollupCells
			return nil
		})
	if err != nil {
		return nil, info, err
	}
	// Workers return sparse groups; materialize every level value inside
	// the base interval, empty aggregates included, matching the
	// per-value query semantics this API always had.
	first := base.Ivs[dim].Lo / span
	last := base.Ivs[dim].Hi / span
	out := make([]GroupResult, 0, last-first+1)
	for v := first; v <= last; v++ {
		agg, ok := groups[v]
		if !ok {
			agg = core.NewAggregate()
		}
		out = append(out, GroupResult{Value: v, Agg: agg})
	}
	return out, info, nil
}

// GroupResult is one group of a GroupBy: the level-value ordinal (its
// index among all values of that level, left to right) and its aggregate.
type GroupResult struct {
	Value uint64
	Agg   core.Aggregate
}

// scatter runs every read (§III-B, §III-E): it sends op to the owners
// of shards, one request per worker built by encode, and folds each
// successful reply with merge. merge runs on the caller's goroutine,
// one reply at a time; an error from it (an undecodable reply) fails
// that worker's shards like a dropped connection. Policy:
//
//   - shards owned by workers the image has declared dead are not sent
//     (one forced refresh at first sight covers a just-finished
//     migration) and go straight to the missing set;
//   - shards whose worker failed on a stale route or a transport error
//     are re-sent after an image refresh and capped backoff, up to
//     MaxRetries times; any other failure (deadline, handler error) ends
//     the read with that error;
//   - shards still unreached afterwards are missing too: the read is a
//     partial answer listed in info.MissingShards, or ErrUnavailable
//     when nothing answered — an empty result would be indistinguishable
//     from real data.
func (s *Server) scatter(ctx context.Context, op string, shards []image.ShardID, info *QueryInfo,
	encode func([]image.ShardID) []byte, merge func(resp []byte) error) error {
	missing := make(map[image.ShardID]struct{})
	contacted := make(map[string]struct{})
	served := 0
	remaining := shards
	var lastErr error
	delay := 5 * time.Millisecond
	for attempt := 0; attempt <= s.maxRetries && len(remaining) > 0; attempt++ {
		if attempt > 0 {
			s.retries.Inc(op)
			s.traceAdd(ctx, op+".retry", fmt.Sprintf("%d shards attempt %d", len(remaining), attempt))
			for _, id := range remaining {
				s.refreshShard(id)
			}
			var err error
			if delay, err = retryBackoff(ctx, delay); err != nil {
				info.WorkersContacted = len(contacted)
				return err
			}
		}
		byWorker := make(map[string][]image.ShardID)
		for _, id := range remaining {
			owner, down := s.liveOwner(id, attempt == 0)
			if down {
				missing[id] = struct{}{}
				continue
			}
			byWorker[owner] = append(byWorker[owner], id)
			contacted[owner] = struct{}{}
		}
		var failed []image.ShardID
		var fatal error
		s.sendRound(ctx, op, byWorker, encode, func(ids []image.ShardID, resp []byte, err error) {
			if err == nil {
				err = merge(resp)
			}
			if err == nil {
				served += len(ids)
				return
			}
			// Never merge an errored partial — its reply is garbage.
			switch classifyWorkerErr(err) {
			case classStale, classTransport:
				lastErr = err
				failed = append(failed, ids...)
			default:
				if fatal == nil {
					fatal = ctxErr(err)
				}
			}
		})
		info.WorkersContacted = len(contacted)
		if fatal != nil {
			return fatal
		}
		remaining = failed
	}
	info.WorkersContacted = len(contacted)
	if info.RollupShards > 0 {
		s.rollupRouted.Inc()
	}
	for _, id := range remaining {
		missing[id] = struct{}{}
	}
	if len(missing) == 0 {
		return nil
	}
	if served == 0 {
		s.unavail.Inc()
		if lastErr == nil {
			lastErr = ErrWorkerDown
		}
		return fmt.Errorf("%w: %d shards unreachable: %v", ErrUnavailable, len(missing), lastErr)
	}
	info.MissingShards = make([]image.ShardID, 0, len(missing))
	for id := range missing {
		info.MissingShards = append(info.MissingShards, id)
	}
	sort.Slice(info.MissingShards, func(i, j int) bool { return info.MissingShards[i] < info.MissingShards[j] })
	s.partials.Inc()
	s.traceAdd(ctx, op+".partial", fmt.Sprintf("%d/%d shards missing", len(missing), info.ShardsConsidered))
	return nil
}

// sendRound sends op to every worker of byWorker in parallel, with the
// payload encode builds from its shard group, and hands each reply (or
// failure) to gather on the calling goroutine as it arrives.
func (s *Server) sendRound(ctx context.Context, op string, byWorker map[string][]image.ShardID,
	encode func([]image.ShardID) []byte, gather func(ids []image.ShardID, resp []byte, err error)) {
	type reply struct {
		ids  []image.ShardID
		resp []byte
		err  error
	}
	replies := make(chan reply, len(byWorker))
	for workerID, ids := range byWorker {
		payload := encode(ids)
		go func() {
			c, err := s.workerClient(workerID)
			if err != nil {
				replies <- reply{ids: ids, err: err}
				return
			}
			resp, err := c.RequestCtx(ctx, op, payload)
			replies <- reply{ids: ids, resp: resp, err: err}
		}()
	}
	for range byWorker {
		r := <-replies
		gather(r.ids, r.resp, r.err)
	}
}

// liveOwner returns the shard's owner and whether the image has declared
// that worker dead. With recheck, a dead owner first triggers one forced
// refresh, covering the race where the shard just migrated off the
// corpse.
func (s *Server) liveOwner(id image.ShardID, recheck bool) (owner string, down bool) {
	s.mu.RLock()
	owner = s.owners[id]
	s.mu.RUnlock()
	if !s.isWorkerDown(owner) {
		return owner, false
	}
	if recheck {
		s.refreshShard(id)
		s.mu.RLock()
		owner = s.owners[id]
		s.mu.RUnlock()
	}
	return owner, s.isWorkerDown(owner)
}

// syncLoop pushes local bounding-box expansions and shard sizes to the
// global image every SyncInterval (§III-B: "servers update Zookeeper
// every 3 seconds as necessary").
func (s *Server) syncLoop() {
	defer s.syncWg.Done()
	tick := time.NewTicker(s.sync)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-tick.C:
			s.SyncNow()
		}
	}
}

// SyncNow pushes all dirty shards immediately (exposed for tests and for
// the freshness benchmarks, which sweep the effective sync interval).
func (s *Server) SyncNow() {
	s.mu.Lock()
	dirty := make([]image.ShardID, 0, len(s.dirty))
	for id := range s.dirty {
		dirty = append(dirty, id)
	}
	s.dirty = make(map[image.ShardID]struct{})
	s.mu.Unlock()

	for _, id := range dirty {
		k, count, ok := s.idx.LeafSnapshot(id)
		if !ok {
			continue
		}
		// Merge into the global record with optimistic concurrency so
		// concurrent servers never lose each other's expansions.
		for attempt := 0; attempt < 8; attempt++ {
			raw, version, err := s.co.Get(image.ShardPath(id))
			if err != nil {
				break
			}
			meta, err := image.DecodeShardMetaBytes(raw)
			if err != nil {
				break
			}
			merged := meta.Key.Clone()
			merged.ExtendKey(k)
			if merged.Equal(meta.Key) && meta.Count >= count {
				break // nothing new to publish
			}
			meta.Key = merged
			if count > meta.Count {
				meta.Count = count
			}
			if _, err := s.co.Set(image.ShardPath(id), meta.EncodeBytes(), version); err == nil {
				s.statMu.Lock()
				s.syncPushes++
				s.statMu.Unlock()
				break
			} else if !errors.Is(err, coord.ErrBadVersion) {
				break
			}
		}
	}
}

// SyncStats returns instrumentation counters.
func (s *Server) SyncStats() (pushes, events uint64) {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.syncPushes, s.watchEvents
}

// Listen exposes the client RPC surface and registers the server in the
// global image.
func (s *Server) Listen(addr string) (string, error) {
	srv := netmsg.NewServer()
	srv.SetFaults(s.fault, "server/"+s.id)
	srv.SetMetrics(s.reg)
	srv.Handle("server.hello", s.handleHello)
	srv.Handle("server.insert", s.handleInsert)
	srv.Handle("server.bulkload", s.handleBulkLoad)
	srv.Handle("server.query", s.handleQuery)
	srv.Handle("server.groupby", s.handleGroupBy)
	srv.Handle("server.stats", s.handleStats)
	srv.Handle("server.clusterstats", s.handleClusterStats)
	srv.Handle("server.sync", func(context.Context, []byte) ([]byte, error) { s.SyncNow(); return nil, nil })
	srv.Handle("server.ping", func(context.Context, []byte) ([]byte, error) { return []byte("pong"), nil })
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", err
	}
	s.srv = srv
	s.addr = bound
	meta := &image.ServerMeta{ID: s.id, Addr: bound}
	if _, err := s.co.CreateOrSet(image.ServerPath(s.id), meta.EncodeBytes()); err != nil {
		srv.Close()
		return "", err
	}
	return bound, nil
}

// Close stops the server. It is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stopSync)
		s.syncWg.Wait()
		s.watcher.Stop()
		if s.srv != nil {
			s.srv.Close()
		}
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.conns = map[string]*netmsg.Client{}
		s.mu.Unlock()
	})
}

// --- RPC handlers ----------------------------------------------------------

// Hello is the connection handshake reply: enough schema metadata for a
// client to encode items without being told the dimension count out of
// band, plus a config fingerprint to detect schema mismatches.
type Hello struct {
	ServerID   string
	Dims       int
	ConfigHash uint64
}

// handleHello serves the server.hello handshake.
func (s *Server) handleHello(_ context.Context, p []byte) ([]byte, error) {
	w := wire.NewWriter(32)
	w.String(s.id)
	w.Uvarint(uint64(s.cfg.Schema.NumDims()))
	w.Uint64(s.cfg.Schema.Fingerprint())
	return w.Bytes(), nil
}

// DecodeHello parses a server.hello reply.
func DecodeHello(b []byte) (Hello, error) {
	r := wire.NewReader(b)
	h := Hello{ServerID: r.String(), Dims: int(r.Uvarint()), ConfigHash: r.Uint64()}
	if r.Err() != nil {
		return Hello{}, r.Err()
	}
	return h, nil
}

func (s *Server) handleInsert(ctx context.Context, p []byte) ([]byte, error) {
	items, err := worker.DecodeItems(wire.NewReader(p), s.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	return nil, s.InsertBatch(ctx, items)
}

func (s *Server) handleBulkLoad(ctx context.Context, p []byte) ([]byte, error) {
	items, err := worker.DecodeItems(wire.NewReader(p), s.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	return nil, s.BulkLoad(ctx, items)
}

func (s *Server) handleQuery(ctx context.Context, p []byte) ([]byte, error) {
	q, opts, err := decodeQueryRequest(p, s.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	agg, info, err := s.Query(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(48)
	agg.Encode(w)
	encodeQueryInfo(w, info)
	return w.Bytes(), nil
}

func (s *Server) handleGroupBy(ctx context.Context, p []byte) ([]byte, error) {
	q, dim, level, opts, err := decodeGroupByRequest(p, s.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	groups, info, err := s.GroupBy(ctx, q, dim, level, opts)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(48 + len(groups)*40)
	w.Uvarint(uint64(len(groups)))
	for _, g := range groups {
		w.Uvarint(g.Value)
		g.Agg.Encode(w)
	}
	encodeQueryInfo(w, info)
	return w.Bytes(), nil
}

// encodeReadOpts appends the read-options trailer server.query and
// server.groupby share: one optional NoRollup byte, written only when
// set. A request that ends before it allows rollups.
func encodeReadOpts(w *wire.Writer, opts QueryOptions) {
	if opts.NoRollup {
		w.Uint8(1)
	}
}

// decodeReadOpts reads a trailer written by encodeReadOpts.
func decodeReadOpts(r *wire.Reader) (QueryOptions, error) {
	var opts QueryOptions
	if r.Remaining() > 0 {
		opts.NoRollup = r.Uint8() != 0
	}
	return opts, r.Err()
}

// EncodeQueryRequest builds the payload for server.query.
func EncodeQueryRequest(q keys.Rect, opts QueryOptions) []byte {
	w := wire.NewWriter(64)
	q.Encode(w)
	encodeReadOpts(w, opts)
	return w.Bytes()
}

// decodeQueryRequest parses a server.query payload for a
// dims-dimensional schema.
func decodeQueryRequest(p []byte, dims int) (keys.Rect, QueryOptions, error) {
	r := wire.NewReader(p)
	q, err := worker.DecodeRect(r, dims)
	if err != nil {
		return keys.Rect{}, QueryOptions{}, err
	}
	opts, err := decodeReadOpts(r)
	return q, opts, err
}

// EncodeGroupByRequest builds the payload for server.groupby.
func EncodeGroupByRequest(q keys.Rect, dim, level int) []byte {
	return EncodeGroupByRequestOpts(q, dim, level, QueryOptions{})
}

// EncodeGroupByRequestOpts is EncodeGroupByRequest with query options.
func EncodeGroupByRequestOpts(q keys.Rect, dim, level int, opts QueryOptions) []byte {
	w := wire.NewWriter(64)
	q.Encode(w)
	w.Uvarint(uint64(dim))
	w.Uvarint(uint64(level))
	encodeReadOpts(w, opts)
	return w.Bytes()
}

// decodeGroupByRequest parses a server.groupby payload for a
// dims-dimensional schema.
func decodeGroupByRequest(p []byte, dims int) (q keys.Rect, dim, level int, opts QueryOptions, err error) {
	r := wire.NewReader(p)
	if q, err = worker.DecodeRect(r, dims); err != nil {
		return keys.Rect{}, 0, 0, QueryOptions{}, err
	}
	dim = int(r.Uvarint())
	level = int(r.Uvarint())
	opts, err = decodeReadOpts(r)
	return q, dim, level, opts, err
}

// encodeQueryInfo appends a QueryInfo to a reply. Fields are strictly
// append-only: old clients stop reading after the fields they know.
func encodeQueryInfo(w *wire.Writer, info QueryInfo) {
	w.Uvarint(uint64(info.ShardsConsidered))
	w.Uvarint(uint64(info.ShardsSearched))
	w.Uvarint(uint64(info.WorkersContacted))
	w.Uvarint(uint64(len(info.MissingShards)))
	for _, id := range info.MissingShards {
		w.Uvarint(uint64(id))
	}
	w.Uvarint(uint64(info.RollupShards))
	w.Uvarint(info.RollupCells)
}

// decodeQueryInfo reads a QueryInfo, tolerating replies from servers
// predating the rollup fields.
func decodeQueryInfo(r *wire.Reader) QueryInfo {
	info := QueryInfo{
		ShardsConsidered: int(r.Uvarint()),
		ShardsSearched:   int(r.Uvarint()),
		WorkersContacted: int(r.Uvarint()),
	}
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		info.MissingShards = make([]image.ShardID, 0, n)
		for i := uint64(0); i < n; i++ {
			info.MissingShards = append(info.MissingShards, image.ShardID(r.Uvarint()))
		}
	}
	if r.Err() == nil && r.Remaining() > 0 {
		info.RollupShards = int(r.Uvarint())
		info.RollupCells = r.Uvarint()
	}
	return info
}

// DecodeGroupByResponse parses a server.groupby reply. The QueryInfo is
// zero-valued for replies from servers predating it.
func DecodeGroupByResponse(b []byte) ([]GroupResult, QueryInfo, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, QueryInfo{}, r.Err()
	}
	out := make([]GroupResult, 0, n)
	for i := uint64(0); i < n; i++ {
		v := r.Uvarint()
		agg, err := core.DecodeAggregate(r)
		if err != nil {
			return nil, QueryInfo{}, err
		}
		out = append(out, GroupResult{Value: v, Agg: agg})
	}
	var info QueryInfo
	if r.Err() == nil && r.Remaining() > 0 {
		info = decodeQueryInfo(r)
	}
	return out, info, r.Err()
}

func (s *Server) handleStats(_ context.Context, p []byte) ([]byte, error) {
	w := wire.NewWriter(16)
	w.Uvarint(uint64(s.idx.NumShards()))
	pushes, events := s.SyncStats()
	w.Uvarint(pushes)
	w.Uvarint(events)
	return w.Bytes(), nil
}

// WorkerStats is one worker's contribution to a ClusterStats reply.
type WorkerStats struct {
	ID          string
	Addr        string
	Shards      int
	Items       uint64
	MemBytes    uint64
	ShardCounts map[image.ShardID]uint64
	OpLatency   map[string]worker.OpLatency
	// Replicas are the standby shard copies this worker hosts as a
	// replication follower; ShipLinks are the follower links this
	// worker feeds as a primary.
	Replicas  []worker.ReplicaInfo
	ShipLinks []worker.ShipLink
}

// ClusterStats is the cluster-wide view assembled by server.clusterstats.
type ClusterStats struct {
	ServerID string
	Shards   int // shards in the server's local image
	Workers  []WorkerStats
}

// ClusterStats fans out to every known worker and assembles per-worker
// shard counts, item totals, and op-latency summaries.
func (s *Server) ClusterStats(ctx context.Context) (*ClusterStats, error) {
	ctx, cancel := s.opCtx(ctx)
	defer cancel()
	s.traceAdd(ctx, "clusterstats", "")
	s.mu.RLock()
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	out := &ClusterStats{ServerID: s.id, Shards: s.idx.NumShards()}
	for _, workerID := range ids {
		c, err := s.workerClient(workerID)
		if err != nil {
			continue // a worker that just left the image is not fatal
		}
		raw, err := c.RequestCtx(ctx, "worker.stats", nil)
		if err != nil {
			continue
		}
		meta, err := image.DecodeWorkerMetaBytes(raw)
		if err != nil {
			continue
		}
		ws := WorkerStats{
			ID: meta.ID, Addr: meta.Addr,
			Shards: int(meta.Shards), Items: meta.Items, MemBytes: meta.MemBytes,
		}
		if raw, err := c.RequestCtx(ctx, "worker.shardcounts", nil); err == nil {
			ws.ShardCounts, _ = worker.DecodeShardCounts(raw)
		}
		if raw, err := c.RequestCtx(ctx, "worker.opstats", nil); err == nil {
			ws.OpLatency, _ = worker.DecodeOpStats(raw)
		}
		if raw, err := c.RequestCtx(ctx, "worker.replicastatus", nil); err == nil {
			if rs, err := worker.DecodeReplStatus(raw); err == nil {
				ws.Replicas, ws.ShipLinks = rs.Standbys, rs.Links
			}
		}
		out.Workers = append(out.Workers, ws)
	}
	return out, nil
}

func (s *Server) handleClusterStats(ctx context.Context, _ []byte) ([]byte, error) {
	cs, err := s.ClusterStats(ctx)
	if err != nil {
		return nil, err
	}
	return EncodeClusterStats(cs), nil
}

// EncodeClusterStats serializes a server.clusterstats reply.
func EncodeClusterStats(cs *ClusterStats) []byte {
	w := wire.NewWriter(64 + len(cs.Workers)*96)
	w.String(cs.ServerID)
	w.Uvarint(uint64(cs.Shards))
	w.Uvarint(uint64(len(cs.Workers)))
	for _, ws := range cs.Workers {
		w.String(ws.ID)
		w.String(ws.Addr)
		w.Uvarint(uint64(ws.Shards))
		w.Uvarint(ws.Items)
		w.Uvarint(ws.MemBytes)
		w.Uvarint(uint64(len(ws.ShardCounts)))
		for id, n := range ws.ShardCounts {
			w.Uvarint(uint64(id))
			w.Uvarint(n)
		}
		w.Uvarint(uint64(len(ws.OpLatency)))
		for op, l := range ws.OpLatency {
			w.String(op)
			w.Uvarint(l.Count)
			w.Uvarint(uint64(l.Mean.Microseconds()))
			w.Uvarint(uint64(l.P50.Microseconds()))
			w.Uvarint(uint64(l.P99.Microseconds()))
			w.Uvarint(uint64(l.Max.Microseconds()))
		}
		w.Uvarint(uint64(len(ws.Replicas)))
		for _, ri := range ws.Replicas {
			w.Uvarint(uint64(ri.Shard))
			w.String(ri.Primary)
			w.Uvarint(ri.Applied)
			w.Uvarint(ri.Head)
		}
		w.Uvarint(uint64(len(ws.ShipLinks)))
		for _, l := range ws.ShipLinks {
			w.Uvarint(uint64(l.Shard))
			w.String(l.Follower)
			w.Uvarint(l.Acked)
			w.Uvarint(l.Seq)
		}
	}
	return w.Bytes()
}

// DecodeClusterStats parses a server.clusterstats reply.
func DecodeClusterStats(b []byte) (*ClusterStats, error) {
	r := wire.NewReader(b)
	cs := &ClusterStats{ServerID: r.String(), Shards: int(r.Uvarint())}
	nw := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := uint64(0); i < nw; i++ {
		ws := WorkerStats{
			ID: r.String(), Addr: r.String(),
			Shards: int(r.Uvarint()), Items: r.Uvarint(), MemBytes: r.Uvarint(),
		}
		if nc := r.Uvarint(); nc > 0 {
			ws.ShardCounts = make(map[image.ShardID]uint64, nc)
			for j := uint64(0); j < nc; j++ {
				id := image.ShardID(r.Uvarint())
				ws.ShardCounts[id] = r.Uvarint()
			}
		}
		if no := r.Uvarint(); no > 0 {
			ws.OpLatency = make(map[string]worker.OpLatency, no)
			for j := uint64(0); j < no; j++ {
				op := r.String()
				ws.OpLatency[op] = worker.OpLatency{
					Count: r.Uvarint(),
					Mean:  time.Duration(r.Uvarint()) * time.Microsecond,
					P50:   time.Duration(r.Uvarint()) * time.Microsecond,
					P99:   time.Duration(r.Uvarint()) * time.Microsecond,
					Max:   time.Duration(r.Uvarint()) * time.Microsecond,
				}
			}
		}
		if nr := r.Uvarint(); nr > 0 && r.Err() == nil {
			ws.Replicas = make([]worker.ReplicaInfo, 0, nr)
			for j := uint64(0); j < nr; j++ {
				ws.Replicas = append(ws.Replicas, worker.ReplicaInfo{
					Shard: image.ShardID(r.Uvarint()), Primary: r.String(),
					Applied: r.Uvarint(), Head: r.Uvarint(),
				})
			}
		}
		if nl := r.Uvarint(); nl > 0 && r.Err() == nil {
			ws.ShipLinks = make([]worker.ShipLink, 0, nl)
			for j := uint64(0); j < nl; j++ {
				ws.ShipLinks = append(ws.ShipLinks, worker.ShipLink{
					Shard: image.ShardID(r.Uvarint()), Follower: r.String(),
					Acked: r.Uvarint(), Seq: r.Uvarint(),
				})
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		cs.Workers = append(cs.Workers, ws)
	}
	return cs, nil
}

// EncodeItems builds the payload for server.insert / server.bulkload.
func EncodeItems(dims int, items []core.Item) []byte {
	w := wire.NewWriter(8 + len(items)*(dims*4+8))
	worker.EncodeItems(w, dims, items)
	return w.Bytes()
}

// DecodeQueryResponse parses a server.query reply.
func DecodeQueryResponse(b []byte) (core.Aggregate, QueryInfo, error) {
	r := wire.NewReader(b)
	agg, err := core.DecodeAggregate(r)
	if err != nil {
		return agg, QueryInfo{}, err
	}
	info := decodeQueryInfo(r)
	return agg, info, r.Err()
}
