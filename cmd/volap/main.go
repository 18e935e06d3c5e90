// Command volap is the VOLAP command-line client: it inspects a running
// cluster and drives insert/query streams against it.
//
// Usage:
//
//	volap status -coord 127.0.0.1:5550
//	volap insert -coord ... [-server addr] -n 10000 [-bulk]
//	volap query  -coord ... [-server addr] [-n 20]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	volap "repro"

	"repro/internal/coord"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/tpcds"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	coordAddr := fs.String("coord", "127.0.0.1:5550", "coordination service address")
	serverAddr := fs.String("server", "", "server address (default: first registered server)")
	n := fs.Int("n", 1000, "operation count")
	seed := fs.Int64("seed", time.Now().UnixNano(), "workload seed")
	bulk := fs.Bool("bulk", false, "use the bulk ingestion path")
	groupBy := fs.String("group-by", "", "grouped query: dim:level (dimension by name or index, level 0-based)")
	noRollup := fs.Bool("no-rollup", false, "force the raw tree path even when a rollup covers the query")
	metricsAddr := fs.String("metrics-addr", "", "serve the session's /metrics on this address (off when empty)")
	_ = fs.Parse(args)

	var qopt []volap.QueryOption
	if *noRollup {
		qopt = append(qopt, volap.WithNoRollup())
	}

	co, err := coord.DialClient(*coordAddr)
	fatal(err, "coord")
	defer co.Close()

	switch cmd {
	case "status":
		status(co)
	case "insert":
		cl, schema := connect(co, *serverAddr)
		defer cl.Close()
		defer serveObs(*metricsAddr, cl)()
		gen := tpcds.NewGenerator(schema, *seed, 1.1)
		start := time.Now()
		batch := 500
		for off := 0; off < *n; off += batch {
			m := batch
			if off+m > *n {
				m = *n - off
			}
			items := gen.Items(m)
			if *bulk {
				fatal(cl.BulkLoadNoCtx(items), "bulk load")
			} else {
				fatal(cl.InsertBatchNoCtx(items), "insert")
			}
		}
		dur := time.Since(start)
		fmt.Printf("inserted %d items in %v (%.0f items/s)\n", *n, dur, float64(*n)/dur.Seconds())
	case "query":
		cl, schema := connect(co, *serverAddr)
		defer cl.Close()
		defer serveObs(*metricsAddr, cl)()
		if *groupBy != "" {
			dim, level := parseGroupBy(schema, *groupBy)
			start := time.Now()
			res, err := cl.QueryNoCtx(volap.AllRect(schema), append(qopt, volap.WithGroupBy(dim, level))...)
			fatal(err, "group-by")
			fmt.Printf("group-by %s:%d source=%s shards=%d latency=%v%s\n",
				schema.Dim(dim).Name(), level, res.Info.Source(), res.Info.ShardsSearched,
				time.Since(start).Round(time.Microsecond), partialNote(res.Info))
			for _, g := range res.Groups {
				fmt.Printf("  value=%-6d count=%-10d sum=%-14.2f\n", g.Value, g.Agg.Count, g.Agg.Sum)
			}
			return
		}
		res, err := cl.QueryNoCtx(volap.AllRect(schema), qopt...)
		fatal(err, "query")
		fmt.Printf("database: count=%d sum=%.2f avg=%.2f source=%s (searched %d shards on %d workers)%s\n",
			res.Agg.Count, res.Agg.Sum, res.Agg.Avg(), res.Info.Source(), res.Info.ShardsSearched,
			res.Info.WorkersContacted, partialNote(res.Info))
		total := res.Agg.Count
		gen := tpcds.NewGenerator(schema, *seed, 1.1)
		for i := 0; i < *n; i++ {
			q := gen.Query()
			start := time.Now()
			res, err := cl.QueryNoCtx(q, qopt...)
			fatal(err, "query")
			cov := 0.0
			if total > 0 {
				cov = float64(res.Agg.Count) / float64(total)
			}
			fmt.Printf("q%-3d coverage=%5.1f%% count=%-10d sum=%-14.2f shards=%-3d source=%-6s latency=%v%s\n",
				i, cov*100, res.Agg.Count, res.Agg.Sum, res.Info.ShardsSearched, res.Info.Source(),
				time.Since(start).Round(time.Microsecond), partialNote(res.Info))
		}
	default:
		usage()
	}
}

// parseGroupBy resolves a "dim:level" spec against the schema; the
// dimension may be named or given as an index, the level is 0-based.
func parseGroupBy(schema *volap.Schema, spec string) (dim, level int) {
	var dimPart, lvlPart string
	for i := len(spec) - 1; i >= 0; i-- {
		if spec[i] == ':' {
			dimPart, lvlPart = spec[:i], spec[i+1:]
			break
		}
	}
	if dimPart == "" || lvlPart == "" {
		fatal(fmt.Errorf("want dim:level, got %q", spec), "group-by")
	}
	dim = -1
	for i := 0; i < schema.NumDims(); i++ {
		if schema.Dim(i).Name() == dimPart {
			dim = i
			break
		}
	}
	if dim < 0 {
		if v, err := strconv.Atoi(dimPart); err == nil && v >= 0 && v < schema.NumDims() {
			dim = v
		} else {
			fatal(fmt.Errorf("unknown dimension %q", dimPart), "group-by")
		}
	}
	v, err := strconv.Atoi(lvlPart)
	if err != nil || v < 0 || v >= schema.Dim(dim).Depth() {
		fatal(fmt.Errorf("level %q out of range for dimension %s (depth %d)",
			lvlPart, schema.Dim(dim).Name(), schema.Dim(dim).Depth()), "group-by")
	}
	return dim, v
}

// partialNote flags a degraded result so a lower-than-expected count is
// never mistaken for the true total.
func partialNote(info volap.QueryInfo) string {
	if !info.Partial() {
		return ""
	}
	return fmt.Sprintf(" PARTIAL: missing shards %v", info.MissingShards)
}

// connect picks a server (explicitly or from the image) and attaches a
// client session.
func connect(co *coord.Client, serverAddr string) (*volap.Client, *volap.Schema) {
	raw, _, err := co.Get(image.PathConfig)
	fatal(err, "cluster config")
	cfg, err := image.DecodeClusterConfigBytes(raw)
	fatal(err, "cluster config")
	addr := serverAddr
	if addr == "" {
		names, err := co.Children(image.PathServers)
		fatal(err, "servers")
		if len(names) == 0 {
			fatal(fmt.Errorf("no servers registered"), "servers")
		}
		raw, _, err := co.Get(image.ServerPath(names[0]))
		fatal(err, "server meta")
		meta, err := image.DecodeServerMetaBytes(raw)
		fatal(err, "server meta")
		addr = meta.Addr
	}
	cl, err := volap.Connect(addr)
	fatal(err, "connect")
	return cl, cfg.Schema
}

// status prints the global system image.
func status(co *coord.Client) {
	fmt.Println("== servers ==")
	names, _ := co.Children(image.PathServers)
	for _, name := range names {
		if raw, _, err := co.Get(image.ServerPath(name)); err == nil {
			if m, err := image.DecodeServerMetaBytes(raw); err == nil {
				fmt.Printf("  %-6s %s\n", m.ID, m.Addr)
			}
		}
	}
	fmt.Println("== workers ==")
	names, _ = co.Children(image.PathWorkers)
	for _, name := range names {
		if raw, _, err := co.Get(image.WorkerPath(name)); err == nil {
			if m, err := image.DecodeWorkerMetaBytes(raw); err == nil {
				age := time.Since(time.UnixMilli(m.UpdatedMs)).Round(time.Millisecond)
				fmt.Printf("  %-6s %-22s shards=%-4d items=%-10d mem=%-10d updated %v ago\n",
					m.ID, m.Addr, m.Shards, m.Items, m.MemBytes, age)
			}
		}
	}
	fmt.Println("== shards ==")
	names, _ = co.Children(image.PathShards)
	ids := make([]int, 0, len(names))
	for _, name := range names {
		if id, ok := image.ParseShardPath(image.PathShards + "/" + name); ok {
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		raw, _, err := co.Get(image.ShardPath(image.ShardID(id)))
		if err != nil {
			continue
		}
		if m, err := image.DecodeShardMetaBytes(raw); err == nil {
			repl := ""
			if len(m.Replicas) > 0 {
				repl = fmt.Sprintf(" replicas=%v", m.Replicas)
			}
			fmt.Printf("  shard %-5d worker=%-6s count=%-10d box=%v%s\n", m.ID, m.Worker, m.Count, m.Key, repl)
		}
	}
}

// serveObs exposes the client session's transport metrics over HTTP when
// -metrics-addr is set; the returned func stops the listener.
func serveObs(addr string, cl *volap.Client) func() {
	if addr == "" {
		return func() {}
	}
	o, err := obs.Serve(addr, cl.Metrics(), nil)
	fatal(err, "metrics")
	fmt.Printf("observability on http://%s/metrics\n", o.Addr())
	return o.Close
}

func fatal(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "volap: %s: %v\n", what, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: volap <status|insert|query> [flags]")
	os.Exit(2)
}
