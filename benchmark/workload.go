package main

import (
	"fmt"
	"math"
	"time"

	volap "repro"
	"repro/internal/core"
	"repro/internal/tpcds"
)

// Operation classes. Every workload defines all five, so every metric
// name has a value on every workload.
type class int

const (
	clsInsert class = iota
	clsLow
	clsMed
	clsHigh
	clsGroupBy
	numClasses
)

var classNames = [numClasses]string{"insert", "query_low", "query_med", "query_high", "groupby"}

var bandNames = map[class]string{clsLow: "low", clsMed: "med", clsHigh: "high"}

// queryClasses is the order of one query cycle.
var queryClasses = [4]class{clsLow, clsMed, clsHigh, clsGroupBy}

type streamKind int

const (
	closedInsert streamKind = iota // 2 connections, InsertBatch back to back
	closedQuery                    // 1 connection, query cycles back to back
	paced                          // open loop: connection A inserts, connection B query cycles
)

// Sizes at -scale 1. Streams are sized by count so that two commits do
// identical work; the counts are rates of the 2-core reference box times
// -seconds, of which mainShare goes to the workload's own stream and the
// rest to the two quiescent probes around it.
const (
	batchItems   = 64
	preloadItems = 65536
	mainShare    = 0.7
	poolPerBand  = 256
	poolAttempts = 4096
	setupRepeats = 3
	// verifyPerBand is how many rectangles of each class the oracle
	// re-answers after the run.
	verifyPerBand = 64

	queryShapeSeed = 2016 // the candidate rectangle stream, the same for every -seed

	refInsertBatchesPerS = 380 // closed loop, 2 connections, durability off
	refCyclesPerS        = 200 // closed loop, 1 connection, 65 536-item store

	probeInsertBatchesPerS = 160 // x probe seconds: about a third of them
	probeCyclesPerS        = 110 // x probe seconds: about half of them
)

type workload struct {
	name, why string
	stream    streamKind
	// paced rates (open loop)
	insertBatchesPerS, cyclesPerS float64
	durability                    volap.DurabilityMode
	replication                   int
	rollups                       []string
	// groupBys are cycled by the group-by class; all use the AllRect base.
	groupBys [][2]int
	// unsteadyUnderLoad lists classes the stream issues but whose median
	// beside other traffic does not repeat between runs: their gated
	// value comes from the quiescent sweep and the stream's own is
	// printed as a diagnostic.
	unsteadyUnderLoad []class
}

var workloads = []workload{
	{
		name:     "ingest",
		why:      "Paper Fig. 7: saturating insert-only closed loop from 2 connections; exercises wire decode, image routing, ingest buffer, drain, BulkLoad and hilbert, and no query, rollup, WAL or replica code",
		stream:   closedInsert,
		groupBys: [][2]int{{0, 0}, {1, 0}},
	},
	{
		name:     "scan",
		why:      "Paper Fig. 4/8 read side: query-only closed loop from 1 connection on a drained store; exercises tree traversal, key overlap tests and server fan-out/merge; bypasses every write-path change",
		stream:   closedQuery,
		groupBys: [][2]int{{0, 0}, {1, 0}},
	},
	{
		name:              "mixed",
		why:               "Paper Fig. 8 at a 50/50 mix, paced open loop with async WAL and RF 2: the read path runs beside drains and a non-empty ingest buffer, inserts also pay WAL append and replica ship",
		stream:            paced,
		insertBatchesPerS: 96, cyclesPerS: 32,
		durability: volap.DurabilityAsync, replication: 2,
		groupBys: [][2]int{{0, 0}, {1, 0}},
		// The low band mixes empty and 30 % rectangles; beside drains its
		// median sits on a steep part of a broad distribution and moved
		// by 28-89 % between seeds. The tree group-by holds every shard's
		// read lock for milliseconds beside the drains' write locks: its
		// median spread 22-36 % over ten runs in which the medium and high
		// bands stayed within 8 %.
		unsteadyUnderLoad: []class{clsLow, clsGroupBy},
	},
	{
		name:              "dashboard",
		why:               "Rollup path, paced open loop: group-bys and cell-aligned aggregates answered from rollup tables kept up in the drain, one unaligned class falls back to the tree; a tree-scan change must not move it",
		stream:            paced,
		insertBatchesPerS: 100, cyclesPerS: 64,
		rollups:  []string{"Store:2,Item:1", "Customer:2,Date:1"},
		groupBys: [][2]int{{0, 1}, {1, 1}},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// querySpec is one generated query of a class.
type querySpec struct {
	rect       volap.Rect
	groupBy    bool
	dim, level int
	// wantSource is the QueryInfo.Source() the cluster must report
	// ("" = any): rollup-covered classes must not silently fall back.
	wantSource string
}

// plan holds the sizes of one run, fixed by -seconds and -scale alone.
type plan struct {
	preload        int
	mainBatches    int           // insert batches in the workload's own stream
	mainCycles     int           // query cycles in the workload's own stream
	headCycles     int           // quiescent query sweep before the stream
	tailBatches    int           // insert burst after the stream
	insertInterval time.Duration // between paced insert batches
	queryInterval  time.Duration // between paced queries
	depthBlocks    int           // traced run: probe blocks per class
	leafStoreItems int           // traced run: standalone core.Store size
}

func scaled(x float64) int { return int(math.Max(1, math.Round(x))) }

func makePlan(w *workload, seconds, scale float64) plan {
	mainS, probeS := seconds*mainShare, seconds*(1-mainShare)
	p := plan{
		preload:     scaled(float64(preloadItems) * scale),
		headCycles:  scaled(probeCyclesPerS * probeS * scale),
		tailBatches: scaled(probeInsertBatchesPerS * probeS * scale),
		depthBlocks: scaled(128 * scale),
		// one of the eight shards' share of the preload
		leafStoreItems: scaled(float64(preloadItems) * scale / 8),
	}
	switch w.stream {
	case closedInsert:
		p.mainBatches = scaled(refInsertBatchesPerS * mainS * scale)
		p.tailBatches = 0
	case closedQuery:
		p.mainCycles = scaled(refCyclesPerS * mainS * scale)
		p.headCycles = 0
	case paced:
		// Pacing keeps its rate at every scale; a smaller scale shortens
		// the stream.
		p.mainBatches = scaled(w.insertBatchesPerS * mainS * scale)
		p.mainCycles = scaled(w.cyclesPerS * mainS * scale)
		p.insertInterval = time.Duration(float64(time.Second) / w.insertBatchesPerS)
		p.queryInterval = time.Duration(float64(time.Second) / (w.cyclesPerS * float64(len(queryClasses))))
	}
	return p
}

// streamItems is how many generated items follow the preload: the main
// stream's batches, then the tail's, then the traced run's depth probes
// (3 depths per block).
func (p plan) streamItems(trace bool) int {
	n := (p.mainBatches + p.tailBatches) * batchItems
	if trace {
		n += p.depthBlocks * 3 * batchItems
	}
	return n
}

// inputs is everything generated from the seed before any clock starts.
type inputs struct {
	schema  *volap.Schema
	rollups []volap.RollupDef
	preload int
	items   []core.Item // the preload, then the stream in batch order
	pools   [numClasses][]querySpec
}

// batch returns stream batch i.
func (in *inputs) batch(i int) []core.Item {
	off := in.preload + i*batchItems
	return in.items[off : off+batchItems]
}

func generate(w *workload, p plan, seed int64, trace bool) (*inputs, error) {
	in := &inputs{schema: volap.TPCDSSchema(), preload: p.preload}
	for _, spec := range w.rollups {
		def, err := volap.ParseRollupDef(in.schema, spec)
		if err != nil {
			return nil, err
		}
		in.rollups = append(in.rollups, def)
	}
	in.items = volap.NewGenerator(in.schema, seed, 1.1).Items(p.preload + p.streamItems(trace))

	// Bin candidate rectangles by their true coverage of the preload, as
	// the paper does, against a shadow store that is dropped before the
	// clusters boot.
	shadow, err := core.NewStore(core.Config{Schema: in.schema})
	if err != nil {
		return nil, err
	}
	if err := shadow.BulkLoad(in.items[:p.preload]); err != nil {
		return nil, err
	}
	// Candidate rectangles come from a fixed stream, so every seed bins
	// the same shapes against its own data: the cost of a class then
	// varies with the seed's items and shard layout, not with which few
	// hundred shapes a seed happened to draw.
	binned := volap.NewGenerator(in.schema, queryShapeSeed, 1.1).GenerateBinned(
		func(q volap.Rect) uint64 { return shadow.Query(q).Count },
		uint64(p.preload), poolPerBand, poolAttempts)

	covered := func(q volap.Rect) bool {
		for _, def := range in.rollups {
			if def.Covers(in.schema, q) {
				return true
			}
		}
		return false
	}
	for band, cls := range [3]class{volap.BandLow: clsLow, volap.BandMedium: clsMed, volap.BandHigh: clsHigh} {
		for i, r := range binned.Rects[band] {
			if tpcds.BandOf(binned.Fracs[band][i]) != volap.Band(band) {
				continue // GenerateBinned's stand-in for an empty band
			}
			spec := querySpec{rect: r}
			if len(in.rollups) > 0 {
				// On a rollup cluster the low class is the tree
				// fallback and the others must be answered from cells.
				if (cls == clsLow) == covered(r) {
					continue
				}
				spec.wantSource = volap.SourceRollup
				if cls == clsLow {
					spec.wantSource = volap.SourceTree
				}
			}
			in.pools[cls] = append(in.pools[cls], spec)
		}
	}
	for _, g := range w.groupBys {
		spec := querySpec{rect: volap.AllRect(in.schema), groupBy: true, dim: g[0], level: g[1]}
		if len(in.rollups) > 0 {
			spec.wantSource = volap.SourceRollup
		}
		in.pools[clsGroupBy] = append(in.pools[clsGroupBy], spec)
	}
	for _, cls := range queryClasses {
		if len(in.pools[cls]) == 0 {
			return nil, fmt.Errorf("seed %d gives no %s query in %d attempts", seed, classNames[cls], poolAttempts)
		}
	}
	return in, nil
}
