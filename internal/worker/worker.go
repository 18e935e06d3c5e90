// Package worker implements VOLAP's worker nodes (§III-A, §III-E): each
// worker stores several shards in memory, executes insert and aggregate
// query operations on them in parallel, publishes shard statistics to the
// coordination service, and participates in load balancing — splitting
// shards, serializing and migrating them to other workers — while
// continuing to serve both inserts (via per-shard insertion queues) and
// queries (shard plus queue are consulted) throughout.
package worker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/netmsg"
	"repro/internal/rollup"
	"repro/internal/wire"
)

// shardState is one hosted shard. The store itself is internally
// concurrent; the state's lock guards the queue/forward transitions made
// by load-balancing operations (§III-E mapping table) and the moves of
// buffered items into the store (see ingest.go).
type shardState struct {
	mu      sync.RWMutex
	store   core.Store
	queue   core.Store // non-nil while a split or migration is in progress
	forward string     // destination worker address after migration

	buf *ingestBuf // insertion buffer; non-nil when the ingest pipeline is on

	repl *replShip // follower links when this worker is the shard's primary

	// roll holds the shard's materialized rollup tables (nil when none
	// are configured). The tables mirror the store exactly: every batch
	// applied to the store is folded into them under the same shard-lock
	// hold, and rollup reads merge queue + buffer on top, so a rollup
	// answer equals a raw scan under any read-lock observation.
	roll *rollup.Set

	// Per-shard metric handles, resolved once at creation so the hot
	// insert/query paths skip label formatting and map lookups.
	insertLat *metrics.Histogram
	queryLat  *metrics.Histogram
	items     *metrics.Gauge
	rollCells *metrics.Gauge
}

// Options tunes a worker's intra-node parallelism. The zero value
// reproduces the paper's synchronous single-threaded-per-request
// behavior exactly.
type Options struct {
	// IngestWorkers is the size of the background drain pool of the
	// asynchronous ingest pipeline. 0 (the default) disables the
	// pipeline: inserts apply inline on the RPC goroutine before the
	// ack, byte-for-byte today's semantics.
	IngestWorkers int
	// MaxPendingItems bounds each shard's insertion buffer; an insert
	// that would overflow it blocks until a drain frees room
	// (backpressure). 0 means DefaultMaxPendingItems.
	MaxPendingItems int
	// QueryParallelism bounds the per-request shard fan-out of
	// multi-shard queries and the root fan-out of single-shard tree
	// queries. 0 means GOMAXPROCS; 1 forces sequential processing.
	QueryParallelism int
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.IngestWorkers < 0 {
		o.IngestWorkers = 0
	}
	if o.MaxPendingItems <= 0 {
		o.MaxPendingItems = DefaultMaxPendingItems
	}
	if o.QueryParallelism <= 0 {
		o.QueryParallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Worker is one worker node.
type Worker struct {
	id   string
	cfg  *image.ClusterConfig
	opts Options
	srv  *netmsg.Server
	addr string

	mu     sync.RWMutex
	shards map[image.ShardID]*shardState

	peerMu sync.Mutex
	peers  map[string]*netmsg.Client // addr -> client (for forwarding/migration)

	replMu   sync.Mutex
	replicas map[image.ShardID]*replicaState // standby copies this worker hosts

	fault *netmsg.FaultInjector // chaos testing; nil in production

	// durability; nil when running in the paper's pure in-memory mode
	dur      *durable.Log
	stopCkpt chan struct{}
	ckptWg   sync.WaitGroup

	// ingest pipeline drain pool (see ingest.go); nil channels when off
	ingestCh   chan *shardState
	stopIngest chan struct{}
	ingestWg   sync.WaitGroup

	statPublish func(*image.WorkerMeta) // set by Start when a coordinator is attached
	stopStats   chan struct{}
	statsWg     sync.WaitGroup
	closeOnce   sync.Once

	// observability
	reg        *metrics.Registry
	trace      *metrics.TraceLog
	insertLat  *metrics.HistogramVec // worker_insert_seconds{shard}
	queryLat   *metrics.HistogramVec // worker_query_seconds{shard}
	shardItems *metrics.GaugeVec     // worker_shard_items{shard}
	forwards   *metrics.Counter      // worker_forwards_total

	// Pipeline metrics. The two histograms record counts, not
	// durations: a value of n is stored as n on the histogram's
	// microsecond scale, so percentiles read back as plain counts.
	ingestItems   *metrics.Gauge     // worker_ingest_queue_items
	drainBatch    *metrics.Histogram // worker_drain_batch_items
	queryParallel *metrics.Histogram // worker_query_parallel_shards

	// replication metrics
	shipBytes  *metrics.Counter  // replica_ship_bytes_total
	shipFails  *metrics.Counter  // replica_ship_failures_total
	replicaLag *metrics.GaugeVec // replica_lag_records{shard}

	// rollup metrics
	rollupHits  *metrics.Counter  // rollup_hits_total
	rollupCells *metrics.GaugeVec // rollup_cells{shard}
}

// MovedPrefix is the error prefix returned when a shard has migrated
// away and forwarding is impossible; servers refresh their image and
// retry (§III-E).
const MovedPrefix = "worker: shard moved to "

// unknownShardFrag appears in errors for shards this worker has never
// hosted — a server whose image is stale relative to a migration or
// split sees these.
const unknownShardFrag = "unknown shard"

// peerTimeout bounds forwarding and migration RPCs between workers.
const peerTimeout = 10 * time.Second

// IsStaleRouteMsg reports whether a worker error message indicates the
// sender's routing image is stale: the shard moved away, or this worker
// never hosted it. Servers react by refreshing the shard's global record
// and retrying.
func IsStaleRouteMsg(msg string) bool {
	return strings.Contains(msg, MovedPrefix) || strings.Contains(msg, unknownShardFrag)
}

// New builds a worker (not yet listening) with default options: the
// synchronous ingest path and GOMAXPROCS query parallelism.
func New(id string, cfg *image.ClusterConfig) *Worker {
	return NewWithOptions(id, cfg, Options{})
}

// NewWithOptions builds a worker with explicit parallelism options.
func NewWithOptions(id string, cfg *image.ClusterConfig, opts Options) *Worker {
	opts = opts.withDefaults()
	reg := metrics.NewRegistry()
	w := &Worker{
		id:            id,
		cfg:           cfg,
		opts:          opts,
		shards:        make(map[image.ShardID]*shardState),
		peers:         make(map[string]*netmsg.Client),
		replicas:      make(map[image.ShardID]*replicaState),
		reg:           reg,
		trace:         metrics.NewTraceLog(0),
		insertLat:     reg.Histogram("worker_insert_seconds", "shard"),
		queryLat:      reg.Histogram("worker_query_seconds", "shard"),
		shardItems:    reg.Gauge("worker_shard_items", "shard"),
		forwards:      reg.Counter("worker_forwards_total").With(),
		ingestItems:   reg.Gauge("worker_ingest_queue_items").With(),
		drainBatch:    reg.Histogram("worker_drain_batch_items").With(),
		queryParallel: reg.Histogram("worker_query_parallel_shards").With(),
		shipBytes:     reg.Counter("replica_ship_bytes_total").With(),
		shipFails:     reg.Counter("replica_ship_failures_total").With(),
		replicaLag:    reg.Gauge("replica_lag_records", "shard"),
		rollupHits:    reg.Counter("rollup_hits_total").With(),
		rollupCells:   reg.Gauge("rollup_cells", "shard"),
	}
	if opts.IngestWorkers > 0 {
		w.ingestCh = make(chan *shardState, 256)
		w.stopIngest = make(chan struct{})
		w.ingestWg.Add(opts.IngestWorkers)
		for i := 0; i < opts.IngestWorkers; i++ {
			go w.ingestLoop()
		}
	}
	return w
}

// newShardState builds the state for one hosted shard, resolving its
// metric handles once and attaching an insertion buffer when the ingest
// pipeline is enabled.
func (w *Worker) newShardState(id image.ShardID) *shardState {
	lbl := shardLabel(id)
	st := &shardState{
		insertLat: w.insertLat.With(lbl),
		queryLat:  w.queryLat.With(lbl),
		items:     w.shardItems.With(lbl),
		rollCells: w.rollupCells.With(lbl),
		roll:      rollup.NewSet(w.cfg.Schema, w.cfg.Rollups),
	}
	if w.opts.IngestWorkers > 0 {
		st.buf = newIngestBuf(w.opts.MaxPendingItems)
	}
	return st
}

// ID returns the worker's identifier.
func (w *Worker) ID() string { return w.id }

// Metrics returns the worker's metric registry (for the /metrics
// endpoint and tests).
func (w *Worker) Metrics() *metrics.Registry { return w.reg }

// Trace returns the worker's recent trace events.
func (w *Worker) Trace() *metrics.TraceLog { return w.trace }

// traceAdd records one trace event if the context carries a trace ID.
func (w *Worker) traceAdd(ctx context.Context, op, detail string) {
	if id := netmsg.TraceIDFrom(ctx); id != 0 {
		w.trace.Add(id, "worker/"+w.id, op, detail)
	}
}

func shardLabel(id image.ShardID) string { return strconv.FormatUint(uint64(id), 10) }

// Addr returns the bound address (after Listen).
func (w *Worker) Addr() string { return w.addr }

// SetFaults wires a fault injector into the worker's serving side and
// its peer (forwarding/migration) connections, labeled "worker/<id>".
// Call before Listen.
func (w *Worker) SetFaults(f *netmsg.FaultInjector) {
	w.fault = f
	if w.srv != nil {
		w.srv.SetFaults(f, "worker/"+w.id)
	}
}

// Listen binds the worker's RPC server.
func (w *Worker) Listen(addr string) (string, error) {
	srv := netmsg.NewServer()
	srv.SetFaults(w.fault, "worker/"+w.id)
	srv.Handle("worker.createshard", w.handleCreateShard)
	srv.Handle("worker.insert", w.handleInsert)
	srv.Handle("worker.bulkload", w.handleBulkLoad)
	srv.Handle("worker.query", w.handleQuery)
	srv.Handle("worker.groupby", w.handleGroupBy)
	srv.Handle("worker.stats", w.handleStats)
	srv.Handle("worker.shardcounts", w.handleShardCounts)
	srv.Handle("worker.opstats", w.handleOpStats)
	srv.Handle("worker.splitquery", w.handleSplitQuery)
	srv.Handle("worker.splitshard", w.handleSplitShard)
	srv.Handle("worker.sendshard", w.handleSendShard)
	srv.Handle("worker.receiveshard", w.handleReceiveShard)
	srv.Handle("worker.addreplica", w.handleAddReplica)
	srv.Handle("worker.dropreplica", w.handleDropReplica)
	srv.Handle("worker.replicaseed", w.handleReplicaSeed)
	srv.Handle("worker.replicate", w.handleReplicate)
	srv.Handle("worker.replicastatus", w.handleReplStatus)
	srv.Handle("worker.promote", w.handlePromote)
	srv.Handle("worker.demote", w.handleDemote)
	srv.Handle("worker.ping", func(context.Context, []byte) ([]byte, error) { return []byte("pong"), nil })
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", err
	}
	w.srv = srv
	w.addr = bound
	return bound, nil
}

// StartStats begins periodic statistics publication through publish (the
// server-side half lives in the coordinator); the paper's workers "update
// shard statistics in Zookeeper periodically" (§III-B).
func (w *Worker) StartStats(publish func(*image.WorkerMeta), interval time.Duration) {
	w.statPublish = publish
	w.stopStats = make(chan struct{})
	w.statsWg.Add(1)
	go func() {
		defer w.statsWg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			publish(w.Meta())
			select {
			case <-w.stopStats:
				return
			case <-tick.C:
			}
		}
	}()
}

// Meta snapshots the worker's statistics. It also re-publishes the
// per-shard gauges, which settles any out-of-order Set between
// concurrent inserts under the shard read lock (see setGauges).
func (w *Worker) Meta() *image.WorkerMeta {
	w.mu.RLock()
	defer w.mu.RUnlock()
	m := &image.WorkerMeta{ID: w.id, Addr: w.addr, UpdatedMs: time.Now().UnixMilli()}
	for _, st := range w.shards {
		st.mu.RLock()
		if st.store != nil {
			n := shardItemsLocked(st)
			m.Shards++
			m.Items += n
			m.MemBytes += st.store.MemoryBytes()
			st.setGauges()
		}
		st.mu.RUnlock()
	}
	return m
}

// setGauges publishes the shard's worker_shard_items and rollup_cells
// gauges (both zero once the store is gone). Every path that changes the
// shard's containers or rollup tables calls it under the shard lock it
// already holds, so a scrape after a drain, split, migration, promotion
// or demotion needs no stats tick.
func (st *shardState) setGauges() {
	var items, cells float64
	if st.store != nil {
		items = float64(shardItemsLocked(st))
		cells = float64(st.roll.Cells())
	}
	st.items.Set(items)
	st.rollCells.Set(cells)
}

// shardItemsLocked counts a shard's items across store, queue and
// insertion buffer. The caller holds the shard's (read) lock and has
// checked store != nil.
func shardItemsLocked(st *shardState) uint64 {
	n := st.store.Count()
	if st.queue != nil {
		n += st.queue.Count()
	}
	if st.buf != nil {
		n += uint64(st.buf.len())
	}
	return n
}

// ShardCount returns the item count of one shard (0 if absent).
func (w *Worker) ShardCount(id image.ShardID) uint64 {
	w.mu.RLock()
	st := w.shards[id]
	w.mu.RUnlock()
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n uint64
	if st.store != nil {
		n += st.store.Count()
	}
	if st.queue != nil {
		n += st.queue.Count()
	}
	if st.buf != nil {
		n += uint64(st.buf.len())
	}
	return n
}

// Close stops the worker gracefully, flushing and fsyncing any attached
// durable log. It is idempotent.
func (w *Worker) Close() {
	w.shutdown(false)
}

// Crash stops the worker abruptly: the durable log's file descriptors
// are closed without flushing, the closest an in-process test can get to
// SIGKILL. Unsynced async-mode records are lost, exactly as they would
// be from a real crash.
func (w *Worker) Crash() {
	w.shutdown(true)
}

func (w *Worker) shutdown(crash bool) {
	w.closeOnce.Do(func() {
		if w.stopStats != nil {
			close(w.stopStats)
			w.statsWg.Wait()
		}
		if w.stopCkpt != nil {
			close(w.stopCkpt)
			w.ckptWg.Wait()
		}
		if w.srv != nil {
			w.srv.Close()
		}
		if w.stopIngest != nil {
			close(w.stopIngest)
			w.ingestWg.Wait()
			if !crash {
				// Graceful close: apply every acknowledged item. A crash
				// skips this — buffered items survive only through the
				// WAL, exactly like the old in-flight applies.
				w.Flush()
			}
		}
		w.peerMu.Lock()
		for _, c := range w.peers {
			c.Close()
		}
		w.peers = nil
		w.peerMu.Unlock()
		if w.dur != nil {
			if crash {
				w.dur.Crash()
			} else {
				w.dur.Close()
			}
		}
	})
}

// peer returns (dialing if needed) a client to another worker.
func (w *Worker) peer(addr string) (*netmsg.Client, error) {
	w.peerMu.Lock()
	defer w.peerMu.Unlock()
	if w.peers == nil {
		return nil, netmsg.ErrClosed
	}
	if c, ok := w.peers[addr]; ok {
		return c, nil
	}
	c, err := netmsg.DialOptions(addr, netmsg.DialOpts{
		DefaultTimeout: peerTimeout,
		Metrics:        w.reg,
		Fault:          w.fault,
		Party:          "worker/" + w.id,
	})
	if err != nil {
		return nil, err
	}
	w.peers[addr] = c
	return c, nil
}

// forwardErr maps a failed forwarding RPC onto the moved-error contract:
// a transport failure reaching the destination means the caller should
// re-resolve the shard's owner from the global image rather than keep
// hammering this tombstone. Genuine remote handler errors pass through.
func forwardErr(err error, dest string) error {
	if err == nil {
		return nil
	}
	var re *netmsg.RemoteError
	if errors.As(err, &re) {
		return err
	}
	return errors.New(MovedPrefix + dest)
}

func (w *Worker) shard(id image.ShardID) *shardState {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.shards[id]
}

// CreateShard installs a fresh empty shard store.
func (w *Worker) CreateShard(id image.ShardID) error {
	store, err := core.NewStore(w.cfg.StoreConfig())
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.shards[id]; dup {
		return fmt.Errorf("worker: shard %d already hosted", id)
	}
	if w.dur != nil {
		if err := w.dur.CreateShard(uint64(id)); err != nil {
			return err
		}
	}
	st := w.newShardState(id)
	st.store = store
	w.shards[id] = st
	return nil
}

// --- wire helpers --------------------------------------------------------

// EncodeItems appends a count-prefixed item batch to the writer: the
// item encoding of every insert-carrying RPC, server.insert included.
func EncodeItems(w *wire.Writer, dims int, items []core.Item) {
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		for _, c := range it.Coords {
			w.Uvarint(c)
		}
		w.Float64(it.Measure)
	}
}

// DecodeItems reads items written by EncodeItems. All coordinate slices
// sub-slice one flat backing array, so a batch costs two allocations
// instead of one per item on the hot RPC decode path.
func DecodeItems(r *wire.Reader, dims int) ([]core.Item, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 {
		return nil, nil
	}
	// Every item occupies at least one varint byte per coordinate plus
	// an 8-byte measure, so a hostile count cannot force a huge
	// allocation out of a short payload.
	if minBytes := uint64(dims + 8); n > uint64(r.Remaining())/minBytes {
		return nil, fmt.Errorf("worker: item count %d exceeds payload", n)
	}
	flat := make([]uint64, int(n)*dims)
	items := make([]core.Item, 0, n)
	for i := uint64(0); i < n; i++ {
		coords := flat[:dims:dims]
		flat = flat[dims:]
		for d := range coords {
			coords[d] = r.Uvarint()
		}
		m := r.Float64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		items = append(items, core.Item{Coords: coords, Measure: m})
	}
	return items, nil
}

// EncodeInsertRequest builds the payload for worker.insert / bulkload.
func EncodeInsertRequest(shard image.ShardID, dims int, items []core.Item) []byte {
	w := wire.NewWriter(16 + len(items)*(dims*4+8))
	w.Uvarint(uint64(shard))
	EncodeItems(w, dims, items)
	return w.Bytes()
}

// encodeShardIDs appends a count-prefixed shard-ID list.
func encodeShardIDs(w *wire.Writer, ids []image.ShardID) {
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uvarint(uint64(id))
	}
}

// decodeShardIDs reads a list written by encodeShardIDs. Every ID takes
// at least one byte, so a count beyond the remaining payload is rejected
// before it can size an allocation.
func decodeShardIDs(r *wire.Reader) ([]image.ShardID, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("worker: shard count %d exceeds payload", n)
	}
	ids := make([]image.ShardID, 0, n)
	for i := uint64(0); i < n; i++ {
		ids = append(ids, image.ShardID(r.Uvarint()))
	}
	return ids, r.Err()
}

// EncodeQueryRequest builds the payload for worker.query.
func EncodeQueryRequest(q keys.Rect, shards []image.ShardID) []byte {
	return EncodeQueryRequestRollup(q, shards, -1)
}

// EncodeQueryRequestRollup is EncodeQueryRequest carrying the cluster
// rollup definition the worker may answer from (-1 forces the tree).
// The definition index rides as an optional trailing field, so
// rollup-unaware workers still parse the request.
func EncodeQueryRequestRollup(q keys.Rect, shards []image.ShardID, defIdx int) []byte {
	w := wire.NewWriter(64)
	q.Encode(w)
	encodeShardIDs(w, shards)
	if defIdx >= 0 {
		w.Uvarint(uint64(defIdx) + 1)
	}
	return w.Bytes()
}

// DecodeRect reads the query rectangle of a read request against a
// dims-dimensional schema. Routing, tree and rollup walks index it by
// schema dimension, so any other dimension count is rejected here.
func DecodeRect(r *wire.Reader, dims int) (keys.Rect, error) {
	q, err := keys.DecodeRect(r)
	if err == nil && len(q.Ivs) != dims {
		return keys.Rect{}, fmt.Errorf("worker: query has %d dimensions, schema has %d", len(q.Ivs), dims)
	}
	return q, err
}

// decodeQueryRequest parses a worker.query payload. A missing rollup
// field (pre-rollup senders) means defIdx -1.
func decodeQueryRequest(p []byte, dims int) (q keys.Rect, ids []image.ShardID, defIdx int, err error) {
	r := wire.NewReader(p)
	if q, err = DecodeRect(r, dims); err != nil {
		return keys.Rect{}, nil, 0, err
	}
	if ids, err = decodeShardIDs(r); err != nil {
		return keys.Rect{}, nil, 0, err
	}
	defIdx = -1
	if r.Remaining() > 0 {
		defIdx = int(r.Uvarint()) - 1
	}
	return q, ids, defIdx, r.Err()
}

// QueryReply is the decoded result of worker.query.
type QueryReply struct {
	Agg            core.Aggregate
	ShardsSearched uint32
	// RollupShards counts the searched shards answered from a
	// materialized rollup table; RollupCells the cells those answers
	// merged. Zero when the tree answered everything.
	RollupShards uint32
	RollupCells  uint64
}

// DecodeQueryReply parses a worker.query response.
func DecodeQueryReply(b []byte) (QueryReply, error) {
	r := wire.NewReader(b)
	agg, err := core.DecodeAggregate(r)
	if err != nil {
		return QueryReply{}, err
	}
	rep := QueryReply{Agg: agg, ShardsSearched: uint32(r.Uvarint())}
	// Rollup fields are absent from pre-rollup replies.
	if r.Err() == nil && r.Remaining() > 0 {
		rep.RollupShards = uint32(r.Uvarint())
		rep.RollupCells = r.Uvarint()
	}
	return rep, r.Err()
}

// --- RPC handlers ----------------------------------------------------------

func (w *Worker) handleCreateShard(_ context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	return nil, w.CreateShard(id)
}

func (w *Worker) handleInsert(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	items, err := DecodeItems(r, w.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	return nil, w.Insert(ctx, id, items)
}

// Insert applies items to a shard: through the asynchronous ingest
// pipeline when it is enabled (ack after buffer append + WAL append),
// otherwise inline on the calling goroutine; diverting to the insertion
// queue during load-balancing operations and forwarding (with the
// caller's trace context) after a migration.
func (w *Worker) Insert(ctx context.Context, id image.ShardID, items []core.Item) error {
	w.traceAdd(ctx, "worker.insert", "shard "+shardLabel(id))
	st := w.shard(id)
	if st == nil {
		return fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	defer st.insertLat.Time()()
	if st.buf != nil {
		if handled, err := w.insertBuffered(ctx, st, id, items); handled {
			return err
		}
		// Queue active, forwarded, or gone: fall through to the
		// synchronous paths, which handle those states.
	}
	st.mu.RLock()
	switch {
	case st.queue != nil:
		q := st.queue
		defer st.mu.RUnlock()
		if err := q.BulkLoad(items); err != nil {
			return err
		}
		// Queued items are logged against the original shard: a split
		// re-snapshots both halves afterwards, and a migration ships them
		// before releasing, so replay stays consistent either way.
		return w.appendInsert(id, items)
	case st.store != nil:
		s := st.store
		defer st.mu.RUnlock()
		// Validate-then-bulk-apply: BulkLoad rejects the whole batch
		// before touching the store and, in Hilbert mode, applies it in
		// curve order (every store implements it natively).
		if err := s.BulkLoad(items); err != nil {
			return err
		}
		st.roll.Add(items)
		st.setGauges()
		if err := w.appendInsert(id, items); err != nil {
			return err
		}
		// Replicate under the same read-lock hold as apply + WAL append,
		// before the ack: see replica.go for the contract.
		w.shipToReplicas(ctx, st, id, items)
		return nil
	case st.forward != "":
		dest := st.forward
		st.mu.RUnlock()
		peer, err := w.peer(dest)
		if err != nil {
			return errors.New(MovedPrefix + dest)
		}
		w.forwards.Inc()
		w.traceAdd(ctx, "worker.insert.forward", dest)
		_, err = peer.RequestCtx(ctx, "worker.insert", EncodeInsertRequest(id, w.cfg.Schema.NumDims(), items))
		return forwardErr(err, dest)
	default:
		st.mu.RUnlock()
		return fmt.Errorf("worker %s: shard %d unavailable", w.id, id)
	}
}

func (w *Worker) handleBulkLoad(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := image.ShardID(r.Uvarint())
	items, err := DecodeItems(r, w.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	w.traceAdd(ctx, "worker.bulkload", "shard "+shardLabel(id))
	st := w.shard(id)
	if st == nil {
		return nil, fmt.Errorf("worker %s: unknown shard %d", w.id, id)
	}
	defer st.insertLat.Time()()
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.queue != nil {
		if err := st.queue.BulkLoad(items); err != nil {
			return nil, err
		}
		return nil, w.appendInsert(id, items)
	}
	if st.store == nil {
		return nil, fmt.Errorf("worker %s: shard %d unavailable", w.id, id)
	}
	if err := st.store.BulkLoad(items); err != nil {
		return nil, err
	}
	st.roll.Add(items)
	st.setGauges()
	if err := w.appendInsert(id, items); err != nil {
		return nil, err
	}
	w.shipToReplicas(ctx, st, id, items)
	return nil, nil
}

func (w *Worker) handleQuery(ctx context.Context, p []byte) ([]byte, error) {
	q, ids, defIdx, err := decodeQueryRequest(p, w.cfg.Schema.NumDims())
	if err != nil {
		return nil, err
	}
	w.traceAdd(ctx, "worker.query", "")
	rep, err := w.queryShards(ctx, q, ids, defIdx)
	if err != nil {
		return nil, err
	}
	out := wire.NewWriter(48)
	rep.Agg.Encode(out)
	out.Uvarint(uint64(rep.ShardsSearched))
	out.Uvarint(uint64(rep.RollupShards))
	out.Uvarint(rep.RollupCells)
	return out.Bytes(), nil
}

// QueryShards aggregates a set of shards, fanning them across up to
// Options.QueryParallelism goroutines with per-shard partial merge; the
// first error cancels the remaining shards' contexts. Single-shard
// requests instead fan out across the tree's root subtrees
// (core.ParallelQuerier). Returns the merged aggregate and how many
// shards contributed.
func (w *Worker) QueryShards(ctx context.Context, q keys.Rect, ids []image.ShardID) (core.Aggregate, uint32, error) {
	rep, err := w.queryShards(ctx, q, ids, -1)
	return rep.Agg, rep.ShardsSearched, err
}

// queryShards is QueryShards with an optional rollup definition index
// each shard may answer from (-1 forces the tree), reporting how many
// shards took the rollup path.
func (w *Worker) queryShards(ctx context.Context, q keys.Rect, ids []image.ShardID, defIdx int) (QueryReply, error) {
	par := w.opts.QueryParallelism
	if len(ids) <= 1 || par <= 1 {
		// Sequential path; a lone shard still parallelizes inside its
		// tree when it is the only work on the request.
		rep := QueryReply{Agg: core.NewAggregate()}
		treePar := 1
		if len(ids) == 1 {
			treePar = par
		}
		for _, id := range ids {
			part, err := w.queryOneShard(ctx, id, q, treePar, defIdx)
			if err != nil {
				return QueryReply{Agg: core.NewAggregate()}, err
			}
			mergeShardAnswer(&rep, part)
		}
		return rep, nil
	}

	if par > len(ids) {
		par = len(ids)
	}
	w.queryParallel.Record(time.Duration(par) * time.Microsecond)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type partial struct {
		ans shardAnswer
		err error
	}
	parts := make([]partial, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for g := 0; g < par; g++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					parts[i].err = ctx.Err()
					continue
				}
				ans, err := w.queryOneShard(ctx, ids[i], q, 1, defIdx)
				parts[i] = partial{ans: ans, err: err}
				if err != nil {
					cancel() // first error stops the fan-out
				}
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()

	// Merge in shard order so float sums stay deterministic for a given
	// request; report the first real error (not a cancellation echo).
	rep := QueryReply{Agg: core.NewAggregate()}
	var firstErr error
	for _, p := range parts {
		if p.err != nil && (firstErr == nil || errors.Is(firstErr, context.Canceled)) {
			firstErr = p.err
		}
	}
	if firstErr != nil {
		return QueryReply{Agg: core.NewAggregate()}, firstErr
	}
	for _, p := range parts {
		mergeShardAnswer(&rep, p.ans)
	}
	return rep, nil
}

// shardAnswer is one shard's contribution to a multi-shard query.
type shardAnswer struct {
	agg   core.Aggregate
	ok    bool // the shard contributed (false for unknown shards)
	hit   bool // answered from a rollup table instead of the tree
	cells uint64
}

// mergeShardAnswer folds one shard's answer into a reply.
func mergeShardAnswer(rep *QueryReply, ans shardAnswer) {
	if !ans.ok {
		return
	}
	rep.Agg.Merge(ans.agg)
	rep.ShardsSearched++
	if ans.hit {
		rep.RollupShards++
		rep.RollupCells += ans.cells
	}
}

// QueryShard aggregates one shard (including its insertion queue, so
// "query processing is not interrupted while a split is in progress",
// §III-E). Forwards (propagating the trace context) if the shard
// migrated away. The boolean reports whether the shard contributed
// (false for unknown shards, which can happen transiently when a
// server's image is ahead of this worker).
func (w *Worker) QueryShard(ctx context.Context, id image.ShardID, q keys.Rect) (core.Aggregate, bool, error) {
	ans, err := w.queryOneShard(ctx, id, q, 1, -1)
	return ans.agg, ans.ok, err
}

// queryOneShard answers one shard with an explicit tree-level
// parallelism bound and an optional rollup definition index. When the
// definition's grid covers q and the shard holds its table, the answer
// is the covering cells merged with the insertion buffer and the
// split/migration queue — exactly what the tree path reads, at cell
// granularity instead of item granularity.
func (w *Worker) queryOneShard(ctx context.Context, id image.ShardID, q keys.Rect, treePar, defIdx int) (shardAnswer, error) {
	st := w.shard(id)
	if st == nil {
		return shardAnswer{agg: core.NewAggregate()}, nil
	}
	defer st.queryLat.Time()()
	st.mu.RLock()
	store, queue, forward := st.store, st.queue, st.forward
	if store == nil && forward != "" {
		st.mu.RUnlock()
		peer, err := w.peer(forward)
		if err != nil {
			return shardAnswer{agg: core.NewAggregate()}, errors.New(MovedPrefix + forward)
		}
		w.forwards.Inc()
		w.traceAdd(ctx, "worker.query.forward", forward)
		resp, err := peer.RequestCtx(ctx, "worker.query", EncodeQueryRequestRollup(q, []image.ShardID{id}, defIdx))
		if err != nil {
			return shardAnswer{agg: core.NewAggregate()}, forwardErr(err, forward)
		}
		rep, err := DecodeQueryReply(resp)
		return shardAnswer{agg: rep.Agg, ok: rep.ShardsSearched > 0,
			hit: rep.RollupShards > 0, cells: rep.RollupCells}, err
	}
	if store == nil {
		st.mu.RUnlock()
		return shardAnswer{agg: core.NewAggregate()}, nil
	}
	// Hold the read lock so the queue and insertion buffer cannot be
	// drained-and-destroyed between querying the store and them (no
	// double or zero count: drain moves happen under the write lock).
	defer st.mu.RUnlock()
	var agg core.Aggregate
	hit := false
	cells := 0
	if t := st.roll.Table(defIdx); t != nil && defIdx >= 0 && t.Def().Covers(w.cfg.Schema, q) {
		agg, cells = t.Query(q)
		hit = true
		w.rollupHits.Inc()
	} else if pq, ok := store.(core.ParallelQuerier); ok && treePar > 1 {
		agg = pq.QueryParallel(q, treePar)
	} else {
		agg = store.Query(q)
	}
	if queue != nil {
		agg.Merge(queue.Query(q))
	}
	if st.buf != nil {
		agg.Merge(st.buf.query(q))
	}
	return shardAnswer{agg: agg, ok: true, hit: hit, cells: uint64(cells)}, nil
}

func (w *Worker) handleStats(context.Context, []byte) ([]byte, error) {
	return w.Meta().EncodeBytes(), nil
}

// OpLatency is one operation's latency summary, as served by
// worker.opstats and aggregated into ClusterStats.
type OpLatency struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// OpStats summarizes the worker's per-op latency histograms, merged
// across shards.
func (w *Worker) OpStats() map[string]OpLatency {
	out := make(map[string]OpLatency, 2)
	for op, v := range map[string]*metrics.HistogramVec{
		"insert": w.insertLat,
		"query":  w.queryLat,
	} {
		d := v.Merged()
		if d.Count == 0 {
			continue
		}
		out[op] = OpLatency{
			Count: d.Count,
			Mean:  d.Mean(),
			P50:   d.Percentile(0.5),
			P99:   d.Percentile(0.99),
			Max:   d.Max,
		}
	}
	return out
}

func (w *Worker) handleOpStats(context.Context, []byte) ([]byte, error) {
	stats := w.OpStats()
	out := wire.NewWriter(16 + len(stats)*48)
	out.Uvarint(uint64(len(stats)))
	for op, s := range stats {
		out.String(op)
		out.Uvarint(s.Count)
		out.Uvarint(uint64(s.Mean.Microseconds()))
		out.Uvarint(uint64(s.P50.Microseconds()))
		out.Uvarint(uint64(s.P99.Microseconds()))
		out.Uvarint(uint64(s.Max.Microseconds()))
	}
	return out.Bytes(), nil
}

// DecodeOpStats parses a worker.opstats reply.
func DecodeOpStats(b []byte) (map[string]OpLatency, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	out := make(map[string]OpLatency, n)
	for i := uint64(0); i < n; i++ {
		op := r.String()
		out[op] = OpLatency{
			Count: r.Uvarint(),
			Mean:  time.Duration(r.Uvarint()) * time.Microsecond,
			P50:   time.Duration(r.Uvarint()) * time.Microsecond,
			P99:   time.Duration(r.Uvarint()) * time.Microsecond,
			Max:   time.Duration(r.Uvarint()) * time.Microsecond,
		}
	}
	return out, r.Err()
}

// ShardIDs lists every locally hosted shard, sorted ascending.
func (w *Worker) ShardIDs() []image.ShardID {
	w.mu.RLock()
	ids := make([]image.ShardID, 0, len(w.shards))
	for id := range w.shards {
		ids = append(ids, id)
	}
	w.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ShardCounts snapshots the item count of every locally hosted shard.
func (w *Worker) ShardCounts() map[image.ShardID]uint64 {
	w.mu.RLock()
	ids := make([]image.ShardID, 0, len(w.shards))
	for id := range w.shards {
		ids = append(ids, id)
	}
	w.mu.RUnlock()
	out := make(map[image.ShardID]uint64, len(ids))
	for _, id := range ids {
		st := w.shard(id)
		if st == nil {
			continue
		}
		st.mu.RLock()
		if st.store != nil {
			out[id] = shardItemsLocked(st)
		}
		st.mu.RUnlock()
	}
	return out
}

func (w *Worker) handleShardCounts(_ context.Context, p []byte) ([]byte, error) {
	counts := w.ShardCounts()
	out := wire.NewWriter(8 + len(counts)*10)
	out.Uvarint(uint64(len(counts)))
	for id, n := range counts {
		out.Uvarint(uint64(id))
		out.Uvarint(n)
	}
	return out.Bytes(), nil
}

// DecodeShardCounts parses a worker.shardcounts reply.
func DecodeShardCounts(b []byte) (map[image.ShardID]uint64, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	out := make(map[image.ShardID]uint64, n)
	for i := uint64(0); i < n; i++ {
		id := image.ShardID(r.Uvarint())
		out[id] = r.Uvarint()
	}
	return out, r.Err()
}
