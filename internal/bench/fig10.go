package bench

import (
	"io"
	"time"

	volap "repro"

	"repro/internal/image"
	"repro/internal/keys"
	"repro/internal/pbs"
	"repro/internal/tpcds"
)

// Fig10Out carries both panels of Figure 10 plus the measured inputs that
// seeded the simulation (the paper seeds its simulation with "the query
// and insert latency distributions observed for VOLAP").
type Fig10Out struct {
	// Measured from the live system:
	ExpandProb    float64
	InsertLatMean time.Duration
	InsertRate    float64

	// Panel (a): mean missed inserts vs elapsed time.
	Sweep []pbs.Result
	// Panel (b): P(k missed) for k=1..4 at fixed elapsed times, per
	// coverage.
	Elapsed   []time.Duration
	Coverages []float64
	PMiss     map[float64]map[time.Duration]pbs.Result
}

// Fig10 reproduces Figure 10: serialization between user sessions on
// different servers. It first measures the box-expansion probability and
// insert latency from a live embedded cluster, then runs the PBS
// simulation with the observed values (§IV-F).
func Fig10(scale Scale, seed int64) (*Fig10Out, error) {
	out := &Fig10Out{}
	schema := tpcds.Schema()

	// --- measurement phase -------------------------------------------
	// Expansion probability: route a skewed TPC-DS stream through a local
	// image and count how often an insert grows a bounding box. The
	// probability collapses as the database grows, which is what confines
	// misses to the most recent seconds of data.
	idx := image.NewIndex(schema, keys.MDS, 4, 8)
	for i := 0; i < 16; i++ {
		if err := idx.AddShard(image.ShardID(i), nil); err != nil {
			return nil, err
		}
	}
	gen := tpcds.NewGenerator(schema, seed, 1.1)
	n := scale.N(60000)
	warm := n / 2
	var expansions, inserts uint64
	for i := 0; i < n; i++ {
		it := gen.Item()
		_, grew, err := idx.RouteInsert(it.Coords)
		if err != nil {
			return nil, err
		}
		if i >= warm { // measure in the steady state, not during warm-up
			inserts++
			if grew {
				expansions++
			}
		}
	}
	out.ExpandProb = pbs.MeasuredExpandProb(expansions, inserts)

	// Insert latency and rate from a live cluster.
	opts := volap.DefaultOptions(schema)
	opts.Workers = 2
	opts.Servers = 2
	opts.SyncInterval = 3 * time.Second // the paper's default rate
	opts.BalanceInterval = -1
	cluster, err := volap.Start(opts)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	cl, err := cluster.Client()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	h := benchHist("bench_fig10_insert_seconds")
	bench := scale.N(4000)
	start := time.Now()
	for i := 0; i < bench; i++ {
		it := gen.Item()
		t0 := time.Now()
		if err := cl.InsertNoCtx(it); err != nil {
			return nil, err
		}
		h.Record(time.Since(t0))
	}
	out.InsertLatMean = h.Mean()
	out.InsertRate = float64(bench) / time.Since(start).Seconds()

	// --- simulation phase --------------------------------------------
	params := pbs.Params{
		InsertRate:    out.InsertRate,
		InsertLatMean: out.InsertLatMean,
		SyncInterval:  3 * time.Second,
		PropMean:      20 * time.Millisecond,
		PropJitter:    30 * time.Millisecond,
		ExpandProb:    out.ExpandProb,
		Coverage:      0.5,
	}
	var sweepTimes []time.Duration
	for ms := 0; ms <= 3200; ms += 100 {
		sweepTimes = append(sweepTimes, time.Duration(ms)*time.Millisecond)
	}
	sweep, err := pbs.Sweep(params, sweepTimes, scale.N(20000), seed)
	if err != nil {
		return nil, err
	}
	out.Sweep = sweep

	out.Elapsed = []time.Duration{250 * time.Millisecond, time.Second, 2 * time.Second}
	out.Coverages = []float64{0.25, 0.50, 0.75, 1.00}
	out.PMiss = make(map[float64]map[time.Duration]pbs.Result)
	for _, cov := range out.Coverages {
		p := params
		p.Coverage = cov
		out.PMiss[cov] = make(map[time.Duration]pbs.Result)
		for _, e := range out.Elapsed {
			r, err := pbs.Simulate(p, e, scale.N(40000), seed+int64(e))
			if err != nil {
				return nil, err
			}
			out.PMiss[cov][e] = r
		}
	}
	return out, nil
}

// PrintFig10 renders both panels.
func PrintFig10(w io.Writer, out *Fig10Out) {
	fprintf(w, "# Figure 10: freshness between sessions on different servers\n")
	fprintf(w, "measured: expand-prob=%.6f insert-lat-mean=%v insert-rate=%.0f/s sync=3s\n",
		out.ExpandProb, out.InsertLatMean, out.InsertRate)
	fprintf(w, "\n## (a) avg missed inserts vs elapsed time\n")
	fprintf(w, "%12s %14s\n", "elapsed(ms)", "missed(avg)")
	for _, r := range out.Sweep {
		fprintf(w, "%12d %14.4f\n", r.Elapsed.Milliseconds(), r.Mean)
	}
	fprintf(w, "\n## (b) probability of k missed inserts\n")
	fprintf(w, "%9s %12s %10s %10s %10s %10s\n", "coverage", "elapsed", "P(1)", "P(2)", "P(3)", "P(4)")
	for _, cov := range out.Coverages {
		for _, e := range out.Elapsed {
			r := out.PMiss[cov][e]
			fprintf(w, "%8.0f%% %12v %10.4f %10.4f %10.4f %10.4f\n",
				cov*100, e, r.PMiss[1], r.PMiss[2], r.PMiss[3], r.PMiss[4])
		}
	}
}
