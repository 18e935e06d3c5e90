// Command volap-worker runs one VOLAP worker node (§III-A): it hosts data
// shards in Hilbert PDC trees, serves insert/query/split/migrate
// operations over TCP, and publishes shard statistics to the coordination
// service.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/durable"
	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/worker"
)

func main() {
	coordAddr := flag.String("coord", "127.0.0.1:5550", "coordination service address")
	id := flag.String("id", "", "worker ID (required, e.g. w0)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	shards := flag.Int("shards", 4, "initial empty shards to create and register")
	stats := flag.Duration("stats", 500*time.Millisecond, "statistics publication interval")
	sessionTTL := flag.Duration("session-ttl", 5*time.Second, "liveness session TTL; the registration disappears this long after the worker dies")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/volap on this address (off when empty)")
	durability := flag.String("durability", "off", "persistence contract: off (in-memory), async (background group commit) or sync (fsync before ack)")
	dataDir := flag.String("data-dir", "", "directory for WALs and snapshots (required unless -durability off); reuse it across restarts to recover")
	ingestWorkers := flag.Int("ingest-workers", 0, "background insertion-drain goroutines (0 = default 2)")
	maxPending := flag.Int("max-pending-items", 0, "per-shard insertion buffer bound before inserts block (0 = default 64Ki)")
	flag.Parse()
	if *id == "" {
		fmt.Fprintln(os.Stderr, "volap-worker: -id is required")
		os.Exit(2)
	}
	mode, err := durable.ParseMode(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker:", err)
		os.Exit(2)
	}
	if mode != durable.ModeOff && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "volap-worker: -data-dir is required with -durability", mode)
		os.Exit(2)
	}

	co, err := coord.DialClient(*coordAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker: coord:", err)
		os.Exit(1)
	}
	defer co.Close()
	raw, _, err := co.Get(image.PathConfig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker: cluster config:", err)
		os.Exit(1)
	}
	cfg, err := image.DecodeClusterConfigBytes(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker:", err)
		os.Exit(1)
	}

	if *ingestWorkers < 0 || *maxPending < 0 {
		fmt.Fprintln(os.Stderr, "volap-worker: -ingest-workers and -max-pending-items must not be negative")
		os.Exit(2)
	}
	w := worker.NewWithOptions(*id, cfg, worker.Options{
		IngestWorkers:   *ingestWorkers,
		MaxPendingItems: *maxPending,
	})
	var rec *durable.Recovery
	if mode != durable.ModeOff {
		d, err := durable.Open(*dataDir, *id, mode, durable.Config{Metrics: w.Metrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "volap-worker: durable:", err)
			os.Exit(1)
		}
		rec, err = w.AttachDurability(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "volap-worker: recovery:", err)
			os.Exit(1)
		}
		if len(rec.Shards) > 0 {
			fmt.Printf("volap-worker %s: recovered %d shards in %v (replayed %d records / %d bytes, truncated %d torn tails, %d released)\n",
				*id, len(rec.Shards), rec.Duration.Round(time.Millisecond),
				rec.ReplayedRecords, rec.ReplayedBytes, rec.TruncatedTails, rec.Released)
		}
	}
	bound, err := w.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker:", err)
		os.Exit(1)
	}
	// A restart after a crash races the old incarnation's TTL: its
	// ephemeral registration may still advertise the dead address. Clear
	// it before re-registering so servers switch over immediately.
	if err := co.Delete(image.WorkerPath(*id), coord.AnyVersion); err != nil && !errors.Is(err, coord.ErrNoNode) {
		fmt.Fprintln(os.Stderr, "volap-worker: clear stale registration:", err)
		os.Exit(1)
	}
	// Register ephemerally under a liveness session: if this process dies,
	// the registration is reaped after one TTL and servers mark the
	// worker's shards down instead of timing out against a corpse.
	sess, err := coord.OpenSession(co, *sessionTTL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volap-worker: session:", err)
		os.Exit(1)
	}
	publish := func(m *image.WorkerMeta) {
		_ = sess.Publish(image.WorkerPath(*id), m.EncodeBytes())
	}
	publish(w.Meta())
	w.StartStats(publish, *stats)

	if rec != nil && len(rec.Shards) > 0 {
		// Recovered shards re-animate their persistent records in the
		// global image — reconcile instead of minting fresh shards.
		res, err := manager.ReadoptShards(co, *id, w.ShardIDs())
		if err != nil {
			fmt.Fprintln(os.Stderr, "volap-worker: readopt:", err)
			os.Exit(1)
		}
		fmt.Printf("volap-worker %s: readopted %d shards (%d conflicts, %d orphans)\n",
			*id, res.Readopted, res.Conflicts, res.Orphans)
	} else if *shards > 0 {
		first, err := manager.AllocShardIDs(co, uint64(*shards))
		if err != nil {
			fmt.Fprintln(os.Stderr, "volap-worker: alloc shards:", err)
			os.Exit(1)
		}
		for i := 0; i < *shards; i++ {
			sid := first + image.ShardID(i)
			if err := w.CreateShard(sid); err != nil {
				fmt.Fprintln(os.Stderr, "volap-worker:", err)
				os.Exit(1)
			}
			meta := &image.ShardMeta{
				ID:     sid,
				Worker: *id,
				Key:    keys.NewEmpty(cfg.Keys, cfg.Schema.NumDims(), cfg.MDSCap),
			}
			if _, err := co.CreateOrSet(image.ShardPath(sid), meta.EncodeBytes()); err != nil {
				fmt.Fprintln(os.Stderr, "volap-worker: register shard:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("volap-worker %s: created shards %d..%d\n", *id, first, first+image.ShardID(*shards)-1)
	}
	fmt.Printf("volap-worker %s: serving on %s\n", *id, bound)

	if *metricsAddr != "" {
		o, err := obs.Serve(*metricsAddr, w.Metrics(), func() any {
			return map[string]any{
				"id":       w.ID(),
				"addr":     w.Addr(),
				"shards":   w.ShardCounts(),
				"op_stats": w.OpStats(),
				"trace":    w.Trace().Events(),
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "volap-worker:", err)
			os.Exit(1)
		}
		defer o.Close()
		fmt.Printf("volap-worker %s: observability on http://%s/metrics\n", *id, o.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	w.Close()
	_ = sess.Close() // graceful deregistration: ephemerals vanish now, not after TTL
}
