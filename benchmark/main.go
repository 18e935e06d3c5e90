// Command benchmark is the repository's benchmark: it boots a real
// 2-worker VOLAP cluster over loopback TCP inside this process, drives
// it through the public client with one of four workloads, checks every
// answer path against a linear-scan oracle and prints the metrics that
// BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string
}

// header is stamped on every output file so a number can be traced to
// the machine, commit and sizes that produced it.
type header struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Scale        float64 `json:"scale"`
	Trace        bool    `json:"trace"`
	CPUs         int     `json:"cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	PreloadItems int     `json:"preload_items"`
	StreamItems  int     `json:"stream_items"`
	StreamCycles int     `json:"stream_query_cycles"`
	SweepCycles  int     `json:"sweep_query_cycles"`
	BurstItems   int     `json:"burst_items"`
}

func newHeader(cfg config, p plan) header {
	h := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:       "unknown",
		PreloadItems: p.preload, StreamItems: p.mainBatches * batchItems, StreamCycles: p.mainCycles,
		SweepCycles: p.headCycles, BurstItems: p.tailBatches * batchItems,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output, in the form the driver's
// contract fixes.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detailed record written beside the trace files.
type report struct {
	Header    header            `json:"header"`
	Outcome   outcome           `json:"outcome"`
	Samples   map[string]int    `json:"samples"`
	Attempted map[string]int    `json:"attempted"`
	Failed    map[string]int    `json:"failed"`
	Info      map[string]metric `json:"diagnostics"`
	Mismatch  string            `json:"mismatch,omitempty"`
	Guard     string            `json:"guard,omitempty"`
}

// classSource returns the section that gives a class its end-to-end
// latency: the workload's own stream where it issues the class steadily,
// else the quiescent sweep (queries) or burst (inserts).
func (res *result) classSource(cls class) *section {
	if res.main.attempted[cls] > 0 && !slices.Contains(res.unsteady, cls) {
		return res.main
	}
	if cls == clsInsert {
		return res.tailIns
	}
	return res.head
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd computes the nine gated metrics and the sample count behind
// each.
func (res *result) endToEnd() (map[string]metric, map[string]int) {
	m := map[string]metric{}
	n := map[string]int{}
	m["setup_s"] = metric{median(res.setup), "s"}
	n["setup_s"] = len(res.setup)

	for cls, name := range classNames {
		lat := res.classSource(class(cls)).lat[cls]
		m[name+"_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
		n[name+"_p50_ms"] = len(lat)
	}

	// Capacity comes from a closed loop only: the stream on ingest and
	// scan, the tail elsewhere. Insert capacity counts the time until
	// the cluster has applied what it acknowledged.
	ins := res.tailIns
	if ins == nil {
		ins = res.main
	}
	done := ins.attempted[clsInsert] - ins.failed[clsInsert]
	m["insert_items_per_s"] = metric{float64(done*batchItems) / ins.idleAt.Seconds(), "items/s"}
	n["insert_items_per_s"] = done
	qry := res.head
	if qry == nil {
		qry = res.main
	}
	answered := 0
	for _, cls := range queryClasses {
		answered += qry.attempted[cls] - qry.failed[cls]
	}
	m["queries_per_s"] = metric{float64(answered) / qry.wall.Seconds(), "1/s"}
	n["queries_per_s"] = answered

	m["peak_rss_mb"] = metric{res.peakRSS, "MiB"}
	n["peak_rss_mb"] = 1
	return m, n
}

func (res *result) report(cfg config) report {
	rep := report{
		Header: res.header, Mismatch: res.mismatch, Guard: res.guard,
		Attempted: map[string]int{}, Failed: map[string]int{},
	}
	rep.Outcome.Correct = res.correct && res.guard == ""
	for _, s := range []*section{res.head, res.main, res.tailIns} {
		if s == nil {
			continue
		}
		for cls, name := range classNames {
			rep.Attempted[name] += s.attempted[cls]
			rep.Failed[name] += s.failed[cls]
			rep.Outcome.Attempted += s.attempted[cls]
			rep.Outcome.Failed += s.failed[cls]
		}
	}
	e2e, samples := res.endToEnd()
	rep.Samples = samples
	rep.Info = res.freeLayers()
	for name, m := range res.pacingDiagnostics() {
		rep.Info[name] = m
	}
	if cfg.trace {
		rep.Outcome.Metrics = res.layers
		rep.Info = e2e
	} else {
		rep.Outcome.Metrics = e2e
	}
	return rep
}

func printMetrics(title string, m map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, name := range names {
		line := fmt.Sprintf("  %-36s %14.4f %-8s", name, m[name].Value, m[name].Unit)
		if n, ok := samples[name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne executes one workload in this process and prints its outcome.
func runOne(cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	rep := res.report(cfg)
	hdr, _ := json.Marshal(rep.Header)
	fmt.Printf("run %s\n", hdr)
	for _, name := range classNames {
		fmt.Printf("  %-12s attempted %7d failed %d\n", name, rep.Attempted[name], rep.Failed[name])
	}
	if cfg.trace {
		printMetrics("end-to-end (traced run, not for comparison)", rep.Info, rep.Samples)
		printMetrics("per layer", rep.Outcome.Metrics, nil)
	} else {
		printMetrics("end-to-end", rep.Outcome.Metrics, rep.Samples)
		printMetrics("diagnostics", rep.Info, nil)
	}
	kind := "report"
	if cfg.trace {
		kind = "layers"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, kind+"-"+cfg.workload+".json"), rep); err != nil {
		return err
	}
	last, _ := json.Marshal(rep.Outcome)
	fmt.Println(string(last))
	switch {
	case res.mismatch != "":
		return fmt.Errorf("answers differ from the oracle: %s", res.mismatch)
	case res.guard != "":
		return fmt.Errorf("open loop invalid: %s", res.guard)
	}
	return nil
}

// child runs this binary again for one workload, so that each run has
// its own address space (VmHWM, heap) as the driver's runs do. It returns
// the child's last output line.
func child(cfg config, echo bool) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-scale", fmt.Sprint(cfg.scale), "-trace", trace, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("workload %s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return outcome{}, fmt.Errorf("workload %s: last line: %w", cfg.workload, err)
	}
	return o, nil
}

func main() {
	var cfg config
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "all", "ingest, scan, mixed, dashboard or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the item stream and the query pools")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds on the reference box: sizes the streams by count")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies the preload and every stream (the smoke test uses 0.01)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and span files; end-to-end numbers are then not for comparison")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for span files, reports and WAL data")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of N full runs of this binary and compare their medians with the bounds")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case aa > 0:
		err = runAA(cfg, aa)
	case cfg.workload == "all":
		for _, w := range workloads {
			one := cfg
			one.workload = w.name
			if _, cerr := child(one, true); cerr != nil && err == nil {
				err = cerr
			}
		}
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
