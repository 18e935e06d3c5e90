package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	volap "repro"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hilbert"
	"repro/internal/image"
	"repro/internal/netmsg"
	"repro/internal/rollup"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/worker"
)

// Standalone probes of the layers below a worker's RPC port, each timed
// alone on this run's generated items and query pools. Short operations
// are timed as a loop and reported as a mean, so the value carries more
// digits than the clock's resolution.

// perUnit runs fn once over n units and returns ns per unit.
func perUnit(n int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// leaf is what every layer probe works on.
type leaf struct {
	r     *runner
	v     *shardView
	cfg   *image.ClusterConfig
	items []core.Item // one shard's share of the preload
	m     map[string]metric
}

func (l *leaf) batches() int { return len(l.items) / batchItems }

func (l *leaf) batch(b int) []core.Item { return l.items[b*batchItems : (b+1)*batchItems] }

func (r *runner) leafProbes(v *shardView, m map[string]metric) error {
	l := &leaf{
		r: r, v: v, m: m,
		cfg:   &image.ClusterConfig{Schema: r.in.schema, Rollups: r.in.rollups},
		items: r.in.items[:min(len(r.in.items), r.p.leafStoreItems)],
	}
	if l.batches() == 0 {
		return fmt.Errorf("leaf probes need at least %d items", batchItems)
	}
	for _, probe := range []func() error{l.netmsg, l.wire, l.image, l.hilbert, l.core, l.rollup, l.worker, l.durable} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// netmsg: framing and loopback round trip with no handler work.
func (l *leaf) netmsg() error {
	echo := netmsg.NewServer()
	echo.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := echo.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer echo.Close()
	c, err := netmsg.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for name, payload := range map[string][]byte{
		"netmsg.rtt_us":       make([]byte, 64),
		"netmsg.rtt_batch_us": server.EncodeItems(l.r.in.schema.NumDims(), l.batch(0)),
	} {
		var ds []time.Duration
		for i := 0; i < 512; i++ {
			t := time.Now()
			if _, err := c.Request("echo", payload); err != nil {
				return err
			}
			ds = append(ds, time.Since(t))
		}
		l.m[name] = metric{medianUS(ds), "us"}
	}
	return nil
}

// wire: the item codec both insert hops use. Decoding walks the same
// reader primitives the server and worker decoders are written with.
func (l *leaf) wire() error {
	dims := l.r.in.schema.NumDims()
	n := l.batches() * batchItems
	bytesOut := 0
	l.m["wire.encode_ns_per_item"] = metric{perUnit(n, func() {
		for b := 0; b < l.batches(); b++ {
			bytesOut += len(server.EncodeItems(dims, l.batch(b)))
		}
	}), "ns"}
	l.m["wire.bytes_per_item"] = metric{float64(bytesOut) / float64(n), "B"}
	encoded := server.EncodeItems(dims, l.batch(0))
	var err error
	l.m["wire.decode_ns_per_item"] = metric{perUnit(n, func() {
		for b := 0; b < l.batches(); b++ {
			rd := wire.NewReader(encoded)
			out := make([]core.Item, rd.Uvarint())
			flat := make([]uint64, len(out)*dims)
			for i := range out {
				out[i].Coords = flat[i*dims : (i+1)*dims]
				for d := range out[i].Coords {
					out[i].Coords[d] = rd.Uvarint()
				}
				out[i].Measure = rd.Float64()
			}
			if rd.Err() != nil {
				err = rd.Err()
			}
		}
	}), "ns"}
	return err
}

// image: a mirror of the server's local index, built from the shard keys
// the coordination store publishes.
func (l *leaf) image() error {
	idx := image.NewIndex(l.cfg.Schema, l.cfg.Keys, l.cfg.MDSCap, 0)
	for _, meta := range l.v.metas {
		if err := idx.AddShard(meta.ID, meta.Key); err != nil {
			return err
		}
	}
	var err error
	l.m["image.route_insert_ns_per_item"] = metric{perUnit(len(l.items), func() {
		for _, it := range l.items {
			if _, _, rerr := idx.RouteInsert(it.Coords); rerr != nil {
				err = rerr
			}
		}
	}), "ns"}
	pools := l.r.in.pools
	l.m["image.route_query_us"] = metric{perUnit(len(pools[clsLow])+len(pools[clsMed]), func() {
		for _, cls := range []class{clsLow, clsMed} {
			for _, spec := range pools[cls] {
				idx.RouteQuery(spec.rect)
			}
		}
	}) / 1e3, "us"}
	return err
}

// hilbert: the curve index of one item, as the tree computes it.
func (l *leaf) hilbert() error {
	schema := l.cfg.Schema
	curve, err := hilbert.New(schema.ExpandedBits())
	if err != nil {
		return err
	}
	exp := make([]uint64, schema.NumDims())
	l.m["hilbert.index_ns_per_item"] = metric{perUnit(len(l.items), func() {
		for _, it := range l.items {
			for d, c := range it.Coords {
				exp[d] = schema.ExpandOrdinal(d, c)
			}
			if _, ierr := curve.Index(exp); ierr != nil {
				err = ierr
			}
		}
	}), "ns"}
	return err
}

// core: a tree of the cluster's configuration holding one shard's share,
// half bulk-loaded and half inserted one by one, then queried.
func (l *leaf) core() error {
	store, err := core.NewStore(l.cfg.StoreConfig())
	if err != nil {
		return err
	}
	half := len(l.items) / 2
	l.m["core.bulkload_ns_per_item"] = metric{perUnit(half, func() {
		for off := 0; off < half; off += 2048 {
			if lerr := store.BulkLoad(l.items[off:min(off+2048, half)]); lerr != nil {
				err = lerr
			}
		}
	}), "ns"}
	l.m["core.insert_ns_per_item"] = metric{perUnit(len(l.items)-half, func() {
		for _, it := range l.items[half:] {
			if ierr := store.Insert(it); ierr != nil {
				err = ierr
			}
		}
	}), "ns"}
	if err != nil {
		return err
	}
	l.m["core.bytes_per_item"] = metric{float64(store.MemoryBytes()) / float64(store.Count()), "B"}
	for _, cls := range []class{clsLow, clsMed, clsHigh} {
		pool := l.r.in.pools[cls]
		pool = pool[:min(len(pool), 64)]
		var st core.QueryStats
		results := uint64(0)
		ns := perUnit(len(pool), func() {
			for _, spec := range pool {
				agg, qs := store.QueryWithStats(spec.rect)
				st.NodesVisited += qs.NodesVisited
				st.ItemsScanned += qs.ItemsScanned
				results += agg.Count
			}
		})
		band := bandNames[cls]
		l.m["core.query_"+band+"_us"] = metric{ns / 1e3, "us"}
		if cls != clsHigh {
			l.m["core.nodes_visited_"+band] = metric{float64(st.NodesVisited) / float64(len(pool)), "count"}
			l.m["core.items_scanned_per_result_"+band] = metric{float64(st.ItemsScanned) / float64(max(results, 1)), "ratio"}
		}
	}
	return nil
}

// rollup: one table of the workload's first definition — the dashboard's
// where the workload keeps none, so the layer has a number everywhere.
func (l *leaf) rollup() error {
	schema := l.cfg.Schema
	var def rollup.Def
	if len(l.cfg.Rollups) > 0 {
		def = l.cfg.Rollups[0]
	} else {
		var err error
		if def, err = rollup.ParseDef(schema, workloads[len(workloads)-1].rollups[0]); err != nil {
			return err
		}
	}
	table := rollup.NewTable(schema, def)
	l.m["rollup.add_ns_per_item"] = metric{perUnit(len(l.items), func() {
		for off := 0; off < len(l.items); off += 2048 {
			table.Add(l.items[off:min(off+2048, len(l.items))])
		}
	}), "ns"}
	l.m["rollup.cells"] = metric{float64(table.Cells()), "count"}
	// Group by the first dimension the definition keys, at its depth.
	groupDim := 0
	for d, depth := range def.Depths {
		if depth > 0 {
			groupDim = d
			break
		}
	}
	span := schema.Dim(groupDim).LeavesUnder(def.Depths[groupDim])
	all := volap.AllRect(schema)
	const rounds = 256
	l.m["rollup.query_us"] = metric{perUnit(rounds, func() {
		for i := 0; i < rounds; i++ {
			table.Query(all)
		}
	}) / 1e3, "us"}
	cells := 0
	l.m["rollup.groupby_us"] = metric{perUnit(rounds, func() {
		for i := 0; i < rounds; i++ {
			cells = table.GroupBy(all, groupDim, span, map[uint64]core.Aggregate{})
		}
	}) / 1e3, "us"}
	l.m["rollup.cells_per_groupby"] = metric{float64(cells), "count"}
	return nil
}

// worker: one worker, one shard, no RPC. With the pipeline on, an insert
// is acknowledged once buffered; with it off, the insert applies inline,
// which is the work a drain does per item.
func (l *leaf) worker() error {
	insertAll := func(opts worker.Options) (float64, error) {
		w := worker.NewWithOptions("probe", l.cfg, opts)
		defer w.Close()
		if err := w.CreateShard(1); err != nil {
			return 0, err
		}
		var err error
		ns := perUnit(l.batches(), func() {
			for b := 0; b < l.batches(); b++ {
				if ierr := w.Insert(context.Background(), 1, l.batch(b)); ierr != nil {
					err = ierr
				}
			}
		})
		return ns, err
	}
	ack, err := insertAll(worker.Options{IngestWorkers: 2})
	if err != nil {
		return err
	}
	l.m["worker.buffered_ack_us"] = metric{ack / 1e3, "us"}
	apply, err := insertAll(worker.Options{})
	if err != nil {
		return err
	}
	l.m["worker.apply_ns_per_item"] = metric{apply / batchItems, "ns"}
	return nil
}

// durable: WAL append of one batch in both modes, in a directory of its
// own under the output directory.
func (l *leaf) durable() error {
	dims := l.cfg.Schema.NumDims()
	dir, err := os.MkdirTemp(l.r.cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := min(l.batches(), 64) // every sync append waits for an fsync
	for name, mode := range map[string]durable.Mode{
		"durable.append_async_us_per_batch": durable.ModeAsync,
		"durable.append_sync_us_per_batch":  durable.ModeSync,
	} {
		log, err := durable.Open(filepath.Join(dir, mode.String()), "probe", mode, durable.Config{})
		if err != nil {
			return err
		}
		if err := log.CreateShard(1); err != nil {
			log.Close()
			return err
		}
		var aerr error
		ns := perUnit(n, func() {
			for b := 0; b < n; b++ {
				if err := log.AppendInsert(1, dims, l.batch(b)); err != nil {
					aerr = err
				}
			}
		})
		if cerr := log.Close(); aerr == nil {
			aerr = cerr
		}
		if aerr != nil {
			return aerr
		}
		l.m[name] = metric{ns / 1e3, "us"}
	}
	rec := durable.EncodeRecord(durable.Record{Type: durable.RecInsert, Shard: 1, Data: durable.EncodeInsert(dims, l.batch(0))})
	l.m["durable.bytes_per_item"] = metric{float64(len(rec)) / batchItems, "B"}
	return nil
}
