// Package volap is VelocityOLAP: a distributed real-time OLAP system for
// high-velocity data, reproducing Dehne, Robillard, Rau-Chaplin and Burke,
// "VOLAP: A Scalable Distributed System for Real-Time OLAP with High
// Velocity Data" (IEEE CLUSTER 2016).
//
// A VOLAP cluster consists of worker nodes storing data shards in Hilbert
// PDC trees, server nodes that route client insertions and aggregate
// queries through a local image of the shard map, a Zookeeper-style
// coordination service holding the global system image, and a manager
// process that load-balances shards across workers in real time. This
// package boots all of them — either embedded in one process (inproc
// transport) or as a real multi-process deployment over TCP (see cmd/) —
// and provides the client API.
//
// Quick start:
//
//	cluster, _ := volap.Start(volap.Options{Schema: volap.TPCDSSchema()})
//	defer cluster.Stop()
//	client, _ := cluster.Client()
//	_ = client.InsertNoCtx(volap.Item{Coords: []uint64{...}, Measure: 9.99})
//	res, _ := client.QueryNoCtx(volap.AllRect(cluster.Schema()))
//
// Every client operation also has a context-first form (Insert, Query,
// ...) that supports cancellation and deadlines; the NoCtx variants are
// thin wrappers over context.Background() bounded by the session's
// request timeout.
package volap

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netmsg"
	"repro/internal/rollup"
	"repro/internal/server"
	"repro/internal/tpcds"
	"repro/internal/worker"
)

// Re-exported data model types: these aliases are the public face of the
// internal packages, so downstream users never import internal paths.
type (
	// Item is one data record: a leaf ordinal per dimension plus a measure.
	Item = core.Item
	// Aggregate is a query result: COUNT, SUM, MIN, MAX.
	Aggregate = core.Aggregate
	// Rect is an aggregate query region: one hierarchy-value interval per
	// dimension.
	Rect = keys.Rect
	// Interval is an inclusive range of leaf ordinals in one dimension.
	Interval = hierarchy.Interval
	// Schema is an ordered set of hierarchical dimensions.
	Schema = hierarchy.Schema
	// Dimension is one hierarchy of levels.
	Dimension = hierarchy.Dimension
	// Level describes one level of a dimension hierarchy.
	Level = hierarchy.Level
	// StoreKind selects the shard data structure.
	StoreKind = core.StoreKind
	// KeyKind selects MBR or MDS keys.
	KeyKind = keys.Kind
	// QueryInfo describes the distributed work a query performed.
	QueryInfo = server.QueryInfo
	// ShardID identifies a shard globally.
	ShardID = image.ShardID
	// BalanceStats counts load-balancer activity.
	BalanceStats = manager.Stats
	// ClusterStats aggregates per-worker shard placement, item counts and
	// operation latency summaries (see Client.ClusterStats).
	ClusterStats = server.ClusterStats
	// WorkerStats is one worker's slice of ClusterStats.
	WorkerStats = server.WorkerStats
	// ReplicaInfo describes one standby shard copy a worker hosts as a
	// replication follower (see WorkerStats.Replicas).
	ReplicaInfo = worker.ReplicaInfo
	// ShipLink describes one outgoing replication stream of a primary
	// (see WorkerStats.ShipLinks).
	ShipLink = worker.ShipLink
	// QueryOptions tunes one query's read path; Query fills it from
	// WithNoRollup.
	QueryOptions = server.QueryOptions
	// RollupDef selects a materialized rollup: one retained hierarchy
	// depth per dimension (0 = aggregated away). See Options.Rollups.
	RollupDef = rollup.Def
	// OpLatency summarizes one operation's latency distribution.
	OpLatency = worker.OpLatency
	// Registry collects named counters, gauges and histograms and exports
	// them as Prometheus text (see internal/obs for the HTTP endpoint).
	Registry = metrics.Registry
	// TraceEvent is one entry of a component's request-trace ring.
	TraceEvent = metrics.TraceEvent
	// FaultInjector intercepts intra-cluster RPC traffic (drop, delay,
	// duplicate, sever, partition) for chaos testing; wire one in via
	// Options.Fault.
	FaultInjector = netmsg.FaultInjector
	// FaultRule matches fault points and prescribes an action.
	FaultRule = netmsg.FaultRule
	// FaultPoint identifies one interception site (party, peer, op, kind).
	FaultPoint = netmsg.FaultPoint
	// FaultAction is what an injector does with one frame or dial.
	FaultAction = netmsg.FaultAction
	// DurabilityMode selects the worker persistence contract: off (the
	// paper's pure in-memory system), async (ack after the in-memory
	// apply, background group commit), or sync (ack only after an fsync
	// covers the insert's WAL record).
	DurabilityMode = durable.Mode
	// RecoveryReport says what a restarted worker rebuilt from its data
	// directory: recovered shards, replayed WAL records/bytes, truncated
	// torn tails, honored release tombstones, and wall-clock duration.
	RecoveryReport = durable.Recovery
)

// Durability modes.
const (
	DurabilityOff   = durable.ModeOff
	DurabilityAsync = durable.ModeAsync
	DurabilitySync  = durable.ModeSync
)

// Answer sources reported by QueryInfo.Source(): every searched shard
// answered from a materialized rollup table, none did, or some mix.
const (
	SourceTree   = server.SourceTree
	SourceRollup = server.SourceRollup
	SourceMixed  = server.SourceMixed
)

// ParseRollupDef parses a rollup specification against a schema:
// "dim:depth" pairs separated by commas, dimensions by name or index,
// omitted dimensions aggregated away ("all" = everything aggregated to
// one cell). Example: "time:2,location:1".
func ParseRollupDef(s *Schema, spec string) (RollupDef, error) {
	return rollup.ParseDef(s, spec)
}

// Fault actions and kinds, re-exported for rule construction.
const (
	FaultPass      = netmsg.FaultPass
	FaultDrop      = netmsg.FaultDrop
	FaultDelay     = netmsg.FaultDelay
	FaultDuplicate = netmsg.FaultDuplicate
	FaultSever     = netmsg.FaultSever
)

// NewFaultInjector returns a fault injector whose probabilistic decisions
// are driven by the given seed (deterministic schedules use Count-limited
// rules instead of probabilities).
func NewFaultInjector(seed int64) *FaultInjector { return netmsg.NewFaultInjector(seed) }

// Shard store kinds (see the paper §III-D).
const (
	StoreArray      = core.StoreArray
	StorePDC        = core.StorePDC
	StoreHilbertPDC = core.StoreHilbertPDC
)

// Key kinds.
const (
	MBR = keys.MBR
	MDS = keys.MDS
)

// NewDimension builds a dimension from its levels.
func NewDimension(name string, levels ...Level) (*Dimension, error) {
	return hierarchy.NewDimension(name, levels...)
}

// NewSchema builds a schema from dimensions.
func NewSchema(dims ...*Dimension) (*Schema, error) {
	return hierarchy.NewSchema(dims...)
}

// TPCDSSchema returns the 8-dimension TPC-DS schema of the paper's
// Figure 1.
func TPCDSSchema() *Schema { return tpcds.Schema() }

// Generator produces the paper's TPC-DS-style workload: skewed items and
// aggregate queries spanning a wide coverage range.
type Generator = tpcds.Generator

// Band is a query coverage band (§IV): low < 33%, medium 33-66%, high > 66%.
type Band = tpcds.Band

// Coverage bands.
const (
	BandLow    = tpcds.Low
	BandMedium = tpcds.Medium
	BandHigh   = tpcds.High
)

// NewGenerator builds a deterministic workload generator over the schema
// with the given power-law skew (the paper-scale experiments use 1.1;
// 0 = uniform).
func NewGenerator(schema *Schema, seed int64, skew float64) *Generator {
	return tpcds.NewGenerator(schema, seed, skew)
}

// BinnedQueries is a pool of queries grouped by true coverage band.
type BinnedQueries = tpcds.BinnedQueries

// AllRect returns the query covering the entire space.
func AllRect(s *Schema) Rect { return keys.AllRect(s) }

// NewRect builds a query region from per-dimension intervals.
func NewRect(ivs ...Interval) Rect { return keys.NewRect(ivs...) }

// Options configures a cluster.
type Options struct {
	// Schema is required.
	Schema *Schema
	// Store selects the shard data structure (default Hilbert PDC tree).
	Store StoreKind
	// Keys selects the key representation (default MDS).
	Keys KeyKind
	// MDSCap, LeafCapacity, DirCapacity tune the shard stores (0 =
	// package defaults).
	MDSCap, LeafCapacity, DirCapacity int

	// Workers and Servers size the cluster (defaults 2 and 1).
	Workers, Servers int
	// ShardsPerWorker sets the initial shard count per worker (default 4).
	ShardsPerWorker int

	// Transport is "inproc" (default; embedded single-process cluster) or
	// "tcp" (every component listens on 127.0.0.1).
	Transport string
	// Name namespaces inproc addresses; autogenerated when empty.
	Name string

	// SyncInterval is the server image synchronization rate (paper
	// default 3 s).
	SyncInterval time.Duration
	// StatsInterval is the worker statistics publication rate (default
	// 500 ms).
	StatsInterval time.Duration
	// BalanceInterval is the manager's pass rate (default 1 s; negative
	// disables the background loop — use RunBalancePass manually).
	BalanceInterval time.Duration
	// BalanceRatio is the max/min load imbalance threshold (default 1.25).
	BalanceRatio float64
	// MinMoveItems suppresses balancing below this absolute gap.
	MinMoveItems uint64
	// MaxShardItems splits any shard beyond this size (0 disables).
	MaxShardItems uint64

	// RequestTimeout bounds every RPC end to end — client→server and
	// server→worker, including retries (default 10 s). A hung worker can
	// therefore never stall a caller past this deadline.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed shard group is re-sent after
	// an image refresh before an operation reports ErrUnavailable
	// (default 3).
	MaxRetries int

	// SessionTTL is the liveness lease of worker registrations in the
	// coordination service (default 5 s). A worker that stops
	// heartbeating — crash, partition — is reaped after one TTL: its
	// ephemeral registration disappears, servers mark its shards down
	// and degrade gracefully (ErrWorkerDown inserts, Partial queries).
	SessionTTL time.Duration
	// Fault, when non-nil, intercepts every intra-cluster RPC
	// (server→worker, worker→worker, manager→worker, and the serving
	// sides) for chaos testing. Production deployments leave it nil.
	Fault *FaultInjector

	// IngestWorkers sizes each worker's background drain pool for the
	// asynchronous insertion pipeline (§III-E). 0 (the default) keeps
	// inserts synchronous — applied inline on the RPC goroutine, today's
	// behavior byte for byte. With n > 0, inserts acknowledge after
	// buffer + WAL append and n goroutines apply buffered batches.
	IngestWorkers int
	// MaxPendingItems bounds each shard's insertion buffer; inserts
	// beyond it block (backpressure). 0 = worker default (64Ki items).
	// Only meaningful with IngestWorkers > 0.
	MaxPendingItems int
	// QueryParallelism bounds how many shards one query request fans
	// across concurrently inside a worker (0 = GOMAXPROCS, 1 =
	// sequential).
	QueryParallelism int

	// Durability selects the worker persistence contract (default off —
	// byte-identical to the paper's in-memory system). With async or
	// sync, every worker keeps per-shard WALs and snapshots under
	// DataDir/<workerID> and survives KillWorker + RestartWorker with its
	// shards intact.
	Durability DurabilityMode
	// DataDir is the root directory for worker durable state; required
	// when Durability is not off.
	DataDir string

	// Rollups lists materialized rollup cubes every worker maintains per
	// shard: for each definition a table keyed by the retained hierarchy
	// depths, updated incrementally as drains apply batches. Servers
	// route covering aggregate and group-by queries to the cheapest
	// table and fall back to the trees otherwise (QueryInfo.Source
	// reports which path answered). Order matters — workers and servers
	// refer to definitions by index.
	Rollups []RollupDef

	// ReplicationFactor is the total number of copies of each shard,
	// primary included (default 1 = no replication). With RF >= 2 every
	// primary ships its WAL records to RF-1 follower workers before
	// acknowledging an insert; the manager keeps replica sets topped up
	// and promotes the freshest follower when a primary's liveness
	// session expires, so a worker crash costs one image refresh instead
	// of a recovery wait. Requires Durability != off (replication ships
	// the same framed records the WAL persists) and at most Workers
	// copies.
	ReplicationFactor int
}

var clusterSeq atomic.Uint64

func (o *Options) defaults() error {
	if o.Schema == nil {
		return errors.New("volap: Options.Schema is required")
	}
	// The zero values of Store and Keys are the paper's defaults
	// (Hilbert PDC tree with MDS keys), so nothing to fill in there.
	if o.Workers < 0 {
		return fmt.Errorf("volap: Options.Workers = %d must not be negative", o.Workers)
	}
	if o.Servers < 0 {
		return fmt.Errorf("volap: Options.Servers = %d must not be negative", o.Servers)
	}
	if o.Servers > 0 && o.Workers == 0 {
		return errors.New("volap: Options.Servers set without Options.Workers — servers need at least one worker to route to")
	}
	if o.RequestTimeout < 0 {
		return fmt.Errorf("volap: Options.RequestTimeout = %v must not be negative", o.RequestTimeout)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("volap: Options.MaxRetries = %d must not be negative", o.MaxRetries)
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Servers == 0 {
		o.Servers = 1
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.ShardsPerWorker <= 0 {
		o.ShardsPerWorker = 4
	}
	if o.Transport == "" {
		o.Transport = "inproc"
	}
	if o.Transport != "inproc" && o.Transport != "tcp" {
		return fmt.Errorf("volap: unknown transport %q", o.Transport)
	}
	if o.Name == "" {
		o.Name = fmt.Sprintf("volap%d", clusterSeq.Add(1))
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 3 * time.Second
	}
	if o.StatsInterval <= 0 {
		o.StatsInterval = 500 * time.Millisecond
	}
	if o.BalanceInterval == 0 {
		o.BalanceInterval = time.Second
	}
	if o.BalanceRatio <= 1 {
		o.BalanceRatio = 1.25
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 5 * time.Second
	}
	if o.IngestWorkers < 0 {
		return fmt.Errorf("volap: Options.IngestWorkers = %d must not be negative", o.IngestWorkers)
	}
	if o.MaxPendingItems < 0 {
		return fmt.Errorf("volap: Options.MaxPendingItems = %d must not be negative", o.MaxPendingItems)
	}
	if o.QueryParallelism < 0 {
		return fmt.Errorf("volap: Options.QueryParallelism = %d must not be negative", o.QueryParallelism)
	}
	if o.Durability != DurabilityOff && o.DataDir == "" {
		return errors.New("volap: Options.DataDir is required when Durability is enabled")
	}
	if o.ReplicationFactor < 0 {
		return fmt.Errorf("volap: Options.ReplicationFactor = %d must not be negative", o.ReplicationFactor)
	}
	if o.ReplicationFactor == 0 {
		o.ReplicationFactor = 1
	}
	if o.ReplicationFactor > o.Workers {
		return fmt.Errorf("volap: Options.ReplicationFactor = %d exceeds Workers = %d — each copy needs its own worker",
			o.ReplicationFactor, o.Workers)
	}
	if o.ReplicationFactor > 1 && o.Durability == DurabilityOff {
		return errors.New("volap: Options.ReplicationFactor > 1 requires Durability (replication ships WAL records)")
	}
	for i, def := range o.Rollups {
		if err := def.Validate(o.Schema); err != nil {
			return fmt.Errorf("volap: Options.Rollups[%d]: %w", i, err)
		}
	}
	return nil
}

// workerOpts translates the cluster options into per-worker tuning.
func (o *Options) workerOpts() worker.Options {
	return worker.Options{
		IngestWorkers:    o.IngestWorkers,
		MaxPendingItems:  o.MaxPendingItems,
		QueryParallelism: o.QueryParallelism,
	}
}

// Cluster is a running VOLAP deployment.
type Cluster struct {
	opts Options
	cfg  *image.ClusterConfig

	store    *coord.Store
	coordSrv *netmsg.Server

	workers  []*worker.Worker
	sessions map[string]*coord.Session // worker ID -> liveness session
	servers  []*server.Server
	mgr      *manager.Manager

	clientSeq atomic.Uint64
	stopped   atomic.Bool
}

// DefaultOptions returns the paper's configuration over the given schema:
// Hilbert PDC tree shards with MDS keys.
func DefaultOptions(s *Schema) Options {
	return Options{Schema: s, Store: StoreHilbertPDC, Keys: MDS}
}

// Start boots a cluster: coordination service, workers (with initial
// empty shards registered in the global image), servers, and the manager.
func Start(opts Options) (*Cluster, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, store: coord.NewStore(), sessions: make(map[string]*coord.Session)}
	c.cfg = &image.ClusterConfig{
		Schema:       opts.Schema,
		Store:        opts.Store,
		Keys:         opts.Keys,
		MDSCap:       opts.MDSCap,
		LeafCapacity: opts.LeafCapacity,
		DirCapacity:  opts.DirCapacity,
		Rollups:      opts.Rollups,
	}
	if _, err := c.store.Create(image.PathConfig, c.cfg.EncodeBytes()); err != nil {
		return nil, err
	}

	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}

	// Workers first, so servers find shards at startup.
	for i := 0; i < opts.Workers; i++ {
		if _, err := c.startWorker(); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < opts.Servers; i++ {
		id := fmt.Sprintf("s%d", i)
		srv, err := server.New(server.Options{
			ID:             id,
			Coord:          c.coordinator(),
			SyncInterval:   opts.SyncInterval,
			RequestTimeout: opts.RequestTimeout,
			MaxRetries:     opts.MaxRetries,
			Fault:          opts.Fault,
		})
		if err != nil {
			return fail(err)
		}
		if _, err := srv.Listen(c.addrFor("server", id)); err != nil {
			srv.Close()
			return fail(err)
		}
		c.servers = append(c.servers, srv)
	}

	mgr, err := manager.New(manager.Options{
		Coord:             c.coordinator(),
		Interval:          opts.BalanceInterval,
		Ratio:             opts.BalanceRatio,
		MinMoveItems:      opts.MinMoveItems,
		MaxShardItems:     opts.MaxShardItems,
		ReplicationFactor: opts.ReplicationFactor,
		Fault:             opts.Fault,
	})
	if err != nil {
		return fail(err)
	}
	c.mgr = mgr
	if opts.ReplicationFactor > 1 {
		// Seed every shard's replica set synchronously so the cluster is
		// fault tolerant from the first insert, even when the background
		// balance loop is disabled.
		if _, err := mgr.RunReplicationPass(); err != nil {
			return fail(err)
		}
	}
	if opts.BalanceInterval > 0 {
		mgr.Start()
	}
	return c, nil
}

// coordinator returns the coordination handle components should use. The
// embedded store doubles as the in-process coordinator; a TCP deployment
// via cmd/ uses coord.DialClient instead.
func (c *Cluster) coordinator() coord.Coordinator { return c.store }

// addrFor builds a component listen address for the chosen transport.
func (c *Cluster) addrFor(role, id string) string {
	if c.opts.Transport == "tcp" {
		return "127.0.0.1:0"
	}
	return fmt.Sprintf("inproc://%s-%s-%s", c.opts.Name, role, id)
}

// registerWorker opens the worker's liveness session and publishes its
// record as an ephemeral node — immediately (servers need the address)
// and then periodically. If the worker crashes, the session expires
// after SessionTTL and the registration vanishes, firing server watches.
func (c *Cluster) registerWorker(w *worker.Worker, id string) (*coord.Session, error) {
	sess, err := coord.OpenSession(c.coordinator(), c.opts.SessionTTL)
	if err != nil {
		return nil, err
	}
	publish := func(m *image.WorkerMeta) {
		_ = sess.Publish(image.WorkerPath(id), m.EncodeBytes())
	}
	publish(w.Meta())
	w.StartStats(publish, c.opts.StatsInterval)
	c.sessions[id] = sess
	return sess, nil
}

// openDurability attaches a durable log rooted at DataDir/<id> and
// recovers whatever the directory already holds. Returns nil when the
// cluster runs durability-off (the paper's in-memory mode).
func (c *Cluster) openDurability(w *worker.Worker, id string) (*durable.Recovery, error) {
	if c.opts.Durability == DurabilityOff {
		return nil, nil
	}
	d, err := durable.Open(filepath.Join(c.opts.DataDir, id), id, c.opts.Durability, durable.Config{
		Metrics: w.Metrics(),
	})
	if err != nil {
		return nil, err
	}
	return w.AttachDurability(d)
}

// startWorker boots one worker with its initial shards. A durable worker
// whose data directory already holds shards (recovery) keeps those
// instead of creating fresh ones.
func (c *Cluster) startWorker() (string, error) {
	id := fmt.Sprintf("w%d", len(c.workers))
	w := worker.NewWithOptions(id, c.cfg, c.opts.workerOpts())
	w.SetFaults(c.opts.Fault)
	rec, err := c.openDurability(w, id)
	if err != nil {
		w.Close()
		return "", err
	}
	if _, err := w.Listen(c.addrFor("worker", id)); err != nil {
		w.Close()
		return "", err
	}
	if _, err := c.registerWorker(w, id); err != nil {
		w.Close()
		return "", err
	}
	co := c.coordinator()

	if rec != nil && len(rec.Shards) > 0 {
		// Recovered shards: reconcile with the global image instead of
		// minting fresh ones.
		if _, err := manager.ReadoptShards(co, id, w.ShardIDs()); err != nil {
			w.Close()
			return "", err
		}
		c.workers = append(c.workers, w)
		return id, nil
	}

	first, err := manager.AllocShardIDs(co, uint64(c.opts.ShardsPerWorker))
	if err != nil {
		w.Close()
		return "", err
	}
	for i := 0; i < c.opts.ShardsPerWorker; i++ {
		sid := first + image.ShardID(i)
		if err := w.CreateShard(sid); err != nil {
			w.Close()
			return "", err
		}
		meta := &image.ShardMeta{
			ID:     sid,
			Worker: id,
			Key:    keys.NewEmpty(c.cfg.Keys, c.cfg.Schema.NumDims(), c.cfg.MDSCap),
		}
		if _, err := co.CreateOrSet(image.ShardPath(sid), meta.EncodeBytes()); err != nil {
			w.Close()
			return "", err
		}
	}
	c.workers = append(c.workers, w)
	return id, nil
}

// AddWorker elastically adds an empty worker (it receives shards through
// load balancing, §IV-B). New workers get no initial shards.
func (c *Cluster) AddWorker() (string, error) {
	id := fmt.Sprintf("w%d", len(c.workers))
	w := worker.NewWithOptions(id, c.cfg, c.opts.workerOpts())
	w.SetFaults(c.opts.Fault)
	if _, err := w.Listen(c.addrFor("worker", id)); err != nil {
		return "", err
	}
	if _, err := c.registerWorker(w, id); err != nil {
		w.Close()
		return "", err
	}
	c.workers = append(c.workers, w)
	return id, nil
}

// KillWorker simulates a crash of the named worker: the process stops
// serving immediately and its liveness session is abandoned — not
// closed — so the registration lingers until the TTL reaps it, exactly
// like a real failure. Use CoordStore().ExpireSessions with SetClock for
// deterministic expiry in tests.
func (c *Cluster) KillWorker(id string) error {
	var w *worker.Worker
	for _, cand := range c.workers {
		if cand.ID() == id {
			w = cand
			break
		}
	}
	if w == nil {
		return fmt.Errorf("volap: no worker %q", id)
	}
	// Stop the worker first: its stats loop publishes through the
	// session, and a publish after the TTL reaps the node would open a
	// fresh session and resurrect the registration. Crash (not Close)
	// drops any durable log on the floor without flushing, so only
	// acknowledged writes survive — exactly a SIGKILL.
	w.Crash()
	if sess := c.sessions[id]; sess != nil {
		sess.Abandon()
	}
	return nil
}

// RestartWorker replaces a killed worker with a fresh process over the
// same identity: same ID, same listen address, and — when the cluster
// runs durable — the same data directory, so the new worker recovers
// every shard the old one owned (snapshots + WAL replay) and re-adopts
// its persistent shard records in the global image. Returns the recovery
// report (nil when durability is off, in which case the restarted worker
// comes back empty and relies on the manager to re-place data).
func (c *Cluster) RestartWorker(id string) (*RecoveryReport, error) {
	idx := -1
	for i, cand := range c.workers {
		if cand.ID() == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("volap: no worker %q", id)
	}
	// Make sure the old incarnation is fully down: Crash is idempotent,
	// and its closed listener frees the inproc address for rebinding.
	c.workers[idx].Crash()
	if sess := c.sessions[id]; sess != nil {
		sess.Abandon()
		delete(c.sessions, id)
	}
	// The abandoned session's ephemeral registration may still linger
	// (TTL not yet expired); clear it so the new registration is not a
	// stale-address ghost.
	if err := c.store.Delete(image.WorkerPath(id), coord.AnyVersion); err != nil && !errors.Is(err, coord.ErrNoNode) {
		return nil, err
	}

	w := worker.NewWithOptions(id, c.cfg, c.opts.workerOpts())
	w.SetFaults(c.opts.Fault)
	rec, err := c.openDurability(w, id)
	if err != nil {
		w.Close()
		return nil, err
	}
	if _, err := w.Listen(c.addrFor("worker", id)); err != nil {
		w.Close()
		return nil, err
	}
	if _, err := c.registerWorker(w, id); err != nil {
		w.Close()
		return nil, err
	}
	if rec != nil && len(rec.Shards) > 0 {
		if _, err := manager.ReadoptShards(c.coordinator(), id, w.ShardIDs()); err != nil {
			w.Close()
			return nil, err
		}
	}
	c.workers[idx] = w
	return rec, nil
}

// Schema returns the cluster's schema.
func (c *Cluster) Schema() *Schema { return c.cfg.Schema }

// NumWorkers returns the current worker count.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// NumServers returns the server count.
func (c *Cluster) NumServers() int { return len(c.servers) }

// ServerAddr returns the client-facing address of server i.
func (c *Cluster) ServerAddr(i int) string { return c.servers[i].Addr() }

// WorkerAddr returns the RPC address of worker i.
func (c *Cluster) WorkerAddr(i int) string { return c.workers[i].Addr() }

// CoordStore exposes the embedded coordination store. Chaos tests use
// it to drive session expiry deterministically (SetClock,
// ExpireSessions); production code never needs it.
func (c *Cluster) CoordStore() *coord.Store { return c.store }

// SyncAll forces every server to push its local image immediately —
// useful in tests and freshness experiments instead of waiting out
// SyncInterval.
func (c *Cluster) SyncAll() {
	for _, s := range c.servers {
		s.SyncNow()
	}
}

// RunBalancePass triggers one manager pass synchronously and returns the
// number of balancing operations performed.
func (c *Cluster) RunBalancePass() (int, error) { return c.mgr.RunPass() }

// DrainWorker migrates every shard off the named worker so it can be
// decommissioned (the shrink half of VOLAP's elasticity). The worker
// keeps running — and keeps forwarding in-flight operations — until
// servers have observed the new shard placement; stop it afterwards.
func (c *Cluster) DrainWorker(id string) (int, error) { return c.mgr.DrainWorker(id) }

// BalanceStats snapshots the manager's split/migration counters.
func (c *Cluster) BalanceStats() BalanceStats { return c.mgr.Stats() }

// PromoteReplica manually promotes the freshest follower of the given
// shard to primary (planned maintenance, hot-spot drain). The previous
// primary, when alive, is demoted to a forwarder; the manager's next
// ensure pass re-seeds the replica set back to full strength. Returns
// the promoted worker's ID.
func (c *Cluster) PromoteReplica(id ShardID) (string, error) { return c.mgr.PromoteShard(id) }

// RunReplicationPass triggers one manager replication pass synchronously
// — dead-primary promotion plus replica-set repair — and returns the
// number of operations performed. Useful in tests with the background
// loop disabled; RunBalancePass includes this pass.
func (c *Cluster) RunReplicationPass() (int, error) { return c.mgr.RunReplicationPass() }

// WorkerLoads returns per-worker item counts, ordered by worker ID.
func (c *Cluster) WorkerLoads() ([]string, []uint64, error) { return c.mgr.SortedLoads() }

// Client connects a new client session to a server chosen round-robin
// (each user session "is attached to one of the server nodes", §IV-F).
func (c *Cluster) Client() (*Client, error) {
	i := int(c.clientSeq.Add(1)-1) % len(c.servers)
	return c.ClientTo(i)
}

// ClientTo connects a client session to a specific server.
func (c *Cluster) ClientTo(i int) (*Client, error) {
	if i < 0 || i >= len(c.servers) {
		return nil, fmt.Errorf("volap: no server %d", i)
	}
	return Connect(c.servers[i].Addr(),
		WithRequestTimeout(c.opts.RequestTimeout),
		WithMaxRetries(c.opts.MaxRetries))
}

// Stop shuts the whole cluster down. It is idempotent.
func (c *Cluster) Stop() {
	if !c.stopped.CompareAndSwap(false, true) {
		return
	}
	if c.mgr != nil {
		c.mgr.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	for _, sess := range c.sessions {
		_ = sess.Close()
	}
	if c.coordSrv != nil {
		c.coordSrv.Close()
	}
	c.store.Close()
}

// Typed errors of the client API. Callers distinguish "the system is
// saturated or converging — retry later" (ErrTimeout, ErrUnavailable)
// from a genuine bug (anything else). ErrStaleRoute never reaches
// callers on its own — the pipeline retries it — but it appears wrapped
// inside ErrUnavailable when retries run out.
var (
	// ErrTimeout means the operation's deadline expired before every
	// involved worker replied.
	ErrTimeout = netmsg.ErrTimeout
	// ErrUnavailable means some shard stayed unreachable across image
	// refreshes and bounded retries.
	ErrUnavailable = server.ErrUnavailable
	// ErrStaleRoute classifies one routing miss after a shard migration.
	ErrStaleRoute = server.ErrStaleRoute
	// ErrWorkerDown fails an insert fast when the target shard's owner is
	// known dead (its liveness session expired); retrying immediately is
	// pointless — wait for the manager to re-place the shard.
	ErrWorkerDown = server.ErrWorkerDown
)

// Defaults of the client/server request policy.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxRetries     = 3
)

// ClientOptions holds one client session's settings; Connect fills it
// from functional options (WithRequestTimeout, WithMaxRetries, ...).
type ClientOptions struct {
	// RequestTimeout bounds each operation whose context has no deadline
	// (default 10 s; negative disables the bound entirely).
	RequestTimeout time.Duration
	// MaxRetries re-issues an operation whose connection dropped before
	// the reply arrived (default 3). Only transport failures are
	// retried; remote errors and deadline expiry are not.
	MaxRetries int
	// Metrics receives the session's transport instrumentation
	// (netmsg_request_seconds, reconnect counters). When nil the client
	// creates a private registry, reachable via Client.Metrics().
	Metrics *metrics.Registry
}

// ClientOption configures one aspect of a client session (see Connect).
type ClientOption func(*ClientOptions)

// WithRequestTimeout bounds each operation whose context has no deadline
// of its own (negative disables the bound entirely).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(o *ClientOptions) { o.RequestTimeout = d }
}

// WithMaxRetries sets how often a transport-failed request is re-issued
// (negative disables retries).
func WithMaxRetries(n int) ClientOption {
	return func(o *ClientOptions) { o.MaxRetries = n }
}

// WithMetrics points the session's transport instrumentation at an
// existing registry.
func WithMetrics(reg *Registry) ClientOption {
	return func(o *ClientOptions) { o.Metrics = reg }
}

func (o *ClientOptions) defaults() {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
}

// Client is a session attached to one server.
type Client struct {
	c       *netmsg.Client
	dims    int
	hash    uint64 // schema fingerprint from the handshake
	retries int
	reg     *metrics.Registry
}

// Connect attaches a client session to a server address. The schema's
// dimension count is learned from the server.hello handshake, so the
// caller needs nothing beyond the address:
//
//	client, err := volap.Connect(addr, volap.WithRequestTimeout(2*time.Second))
func Connect(addr string, options ...ClientOption) (*Client, error) {
	var opts ClientOptions
	for _, apply := range options {
		apply(&opts)
	}
	opts.defaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	nc, err := netmsg.DialOptions(addr, netmsg.DialOpts{DefaultTimeout: opts.RequestTimeout, Metrics: reg})
	if err != nil {
		return nil, err
	}
	resp, err := nc.Request("server.hello", nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("volap: handshake with %s: %w", addr, err)
	}
	h, err := server.DecodeHello(resp)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("volap: handshake with %s: %w", addr, err)
	}
	return &Client{c: nc, dims: h.Dims, hash: h.ConfigHash, retries: opts.MaxRetries, reg: reg}, nil
}

// Dims returns the schema dimension count the session encodes items
// with.
func (cl *Client) Dims() int { return cl.dims }

// ConfigHash returns the schema fingerprint learned from the handshake.
func (cl *Client) ConfigHash() uint64 { return cl.hash }

// Metrics returns the session's registry: request latency histograms per
// op plus reconnect/dial-failure counters.
func (cl *Client) Metrics() *Registry { return cl.reg }

// WithTrace stamps a fresh trace ID on the context (keeping an existing
// one) and returns it alongside the derived context. Every RPC the
// client issues under that context — and every hop it fans out to inside
// the cluster — records trace events tagged with the same ID.
func WithTrace(ctx context.Context) (context.Context, uint64) {
	return netmsg.EnsureTraceID(ctx)
}

// TraceID extracts the trace ID from a context (0 when absent).
func TraceID(ctx context.Context) uint64 { return netmsg.TraceIDFrom(ctx) }

// request issues one RPC, re-dialing and re-issuing on transport
// failures (the netmsg layer reconnects with backoff; this layer decides
// the attempt budget) and mapping remote error text back onto the typed
// error set.
func (cl *Client) request(ctx context.Context, op string, payload []byte) ([]byte, error) {
	ctx, _ = netmsg.EnsureTraceID(ctx)
	var resp []byte
	var err error
	for attempt := 0; attempt <= cl.retries; attempt++ {
		resp, err = cl.c.RequestCtx(ctx, op, payload)
		if err == nil || !isTransient(err) {
			return resp, mapRemoteError(err)
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// isTransient reports whether re-issuing the request may succeed: the
// connection dropped before a reply, or reconnecting failed outright.
// Remote errors, timeouts, and cancellations are final.
func isTransient(err error) bool {
	if errors.Is(err, netmsg.ErrConnLost) {
		return true
	}
	if errors.Is(err, netmsg.ErrTimeout) || errors.Is(err, netmsg.ErrClosed) ||
		errors.Is(err, context.Canceled) {
		return false
	}
	var re *netmsg.RemoteError
	return !errors.As(err, &re) // dial errors and other transport faults
}

// mapRemoteError restores the typed error set across the RPC boundary:
// a server-side ErrTimeout/ErrUnavailable arrives as a RemoteError whose
// message embeds the sentinel's text.
func mapRemoteError(err error) error {
	var re *netmsg.RemoteError
	if err == nil || !errors.As(err, &re) {
		return err
	}
	sentinels := []error{ErrTimeout, ErrUnavailable, ErrStaleRoute, ErrWorkerDown}
	for _, sentinel := range sentinels {
		if rest, ok := strings.CutPrefix(re.Msg, sentinel.Error()); ok {
			if rest = strings.TrimPrefix(rest, ": "); rest == "" {
				return sentinel
			}
			return fmt.Errorf("%w: %s", sentinel, rest)
		}
	}
	for _, sentinel := range sentinels {
		if strings.Contains(re.Msg, sentinel.Error()) {
			return fmt.Errorf("%w: %s", sentinel, re.Msg)
		}
	}
	return err
}

// Insert sends one item.
func (cl *Client) Insert(ctx context.Context, it Item) error {
	return cl.InsertBatch(ctx, []Item{it})
}

// InsertBatch sends a batch of items in one round trip.
func (cl *Client) InsertBatch(ctx context.Context, items []Item) error {
	_, err := cl.request(ctx, "server.insert", server.EncodeItems(cl.dims, items))
	return err
}

// BulkLoad ingests a large batch through the workers' bulk path (§IV-C).
func (cl *Client) BulkLoad(ctx context.Context, items []Item) error {
	_, err := cl.request(ctx, "server.bulkload", server.EncodeItems(cl.dims, items))
	return err
}

// GroupResult is one group of a grouped query: the ordinal of the level
// value (its left-to-right index among all values at that level) and
// its aggregate.
type GroupResult = server.GroupResult

// Result is the answer to one Query call.
type Result struct {
	// Agg aggregates the whole queried region.
	Agg Aggregate
	// Groups holds one aggregate per level value when the query was
	// built with WithGroupBy; nil otherwise.
	Groups []GroupResult
	// Info reports the work performed: shards searched and missing,
	// replica staleness, and which path answered (Info.Source():
	// SourceRollup, SourceTree, or SourceMixed).
	Info QueryInfo
}

// queryPlan is the resolved shape of one Query call.
type queryPlan struct {
	opts    QueryOptions
	groupBy bool
	dim     int
	level   int
}

// QueryOption shapes one Query call (WithGroupBy, WithNoRollup).
type QueryOption func(*queryPlan)

// WithGroupBy turns the query into a grouped aggregate: one result per
// child value of dimension dim at the given level (0-based) inside the
// queried region — the OLAP roll-up/drill-down primitive.
func WithGroupBy(dim, level int) QueryOption {
	return func(p *queryPlan) { p.groupBy = true; p.dim = dim; p.level = level }
}

// WithNoRollup forces the raw tree path even when a materialized rollup
// covers the query (exact-path benchmarking, debugging).
func WithNoRollup() QueryOption {
	return func(p *queryPlan) { p.opts.NoRollup = true }
}

// Query is the session's one aggregate-query surface. Bare, it returns
// the aggregate over q; options refine it:
//
//	res, err := client.Query(ctx, q)                          // aggregate
//	res, err := client.Query(ctx, q, volap.WithGroupBy(0, 1)) // grouped
//	res, err := client.Query(ctx, q, volap.WithNoRollup())    // force trees
//
// Result.Info reports the work performed, including which data path
// answered (Info.Source()) and any shards missing from the answer.
func (cl *Client) Query(ctx context.Context, q Rect, options ...QueryOption) (*Result, error) {
	var plan queryPlan
	for _, apply := range options {
		apply(&plan)
	}
	if plan.groupBy {
		resp, err := cl.request(ctx, "server.groupby",
			server.EncodeGroupByRequestOpts(q, plan.dim, plan.level, plan.opts))
		if err != nil {
			return nil, err
		}
		groups, info, err := server.DecodeGroupByResponse(resp)
		if err != nil {
			return nil, err
		}
		res := &Result{Agg: core.NewAggregate(), Groups: groups, Info: info}
		for _, g := range groups {
			res.Agg.Merge(g.Agg)
		}
		return res, nil
	}
	resp, err := cl.request(ctx, "server.query", server.EncodeQueryRequest(q, plan.opts))
	if err != nil {
		return nil, err
	}
	agg, info, err := server.DecodeQueryResponse(resp)
	if err != nil {
		return nil, err
	}
	return &Result{Agg: agg, Info: info}, nil
}

// Sync asks the session's server to push its local image immediately.
func (cl *Client) Sync(ctx context.Context) error {
	_, err := cl.request(ctx, "server.sync", nil)
	return err
}

// ClusterStats asks the session's server for a cluster-wide snapshot:
// per-worker shard counts, item totals, memory footprint and operation
// latency summaries, gathered over the workers' stats RPCs.
func (cl *Client) ClusterStats(ctx context.Context) (*ClusterStats, error) {
	resp, err := cl.request(ctx, "server.clusterstats", nil)
	if err != nil {
		return nil, err
	}
	return server.DecodeClusterStats(resp)
}

// No-context convenience wrappers: context.Background() bounded by the
// session's request timeout, so examples and interactive use stay
// one-liners.

// InsertNoCtx is Insert with context.Background().
func (cl *Client) InsertNoCtx(it Item) error { return cl.Insert(context.Background(), it) }

// InsertBatchNoCtx is InsertBatch with context.Background().
func (cl *Client) InsertBatchNoCtx(items []Item) error {
	return cl.InsertBatch(context.Background(), items)
}

// BulkLoadNoCtx is BulkLoad with context.Background().
func (cl *Client) BulkLoadNoCtx(items []Item) error {
	return cl.BulkLoad(context.Background(), items)
}

// QueryNoCtx is Query with context.Background().
func (cl *Client) QueryNoCtx(q Rect, options ...QueryOption) (*Result, error) {
	return cl.Query(context.Background(), q, options...)
}

// SyncNoCtx is Sync with context.Background().
func (cl *Client) SyncNoCtx() error { return cl.Sync(context.Background()) }

// ClusterStatsNoCtx is ClusterStats with context.Background().
func (cl *Client) ClusterStatsNoCtx() (*ClusterStats, error) {
	return cl.ClusterStats(context.Background())
}

// Close detaches the session.
func (cl *Client) Close() { cl.c.Close() }
