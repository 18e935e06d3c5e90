package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the A/A tool and the smoke test need.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's rule).
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Min(math.Max(math.Floor(pos), 1), float64(len(s)-1)))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Diff     float64 `json:"relative_difference"`
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// runAA runs two interleaved sets of n runs per workload — the same
// binary, a different seed for every run — and compares the sets as the
// driver compares a change with its parent.
func runAA(cfg config, n int) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set")
	}
	var rows []aaRow
	for _, w := range sp.Workloads {
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			one := cfg
			one.workload, one.seed, one.trace = w.Name, cfg.seed+int64(i), false
			out, err := child(one, false)
			if err != nil {
				return err
			}
			if !out.Correct || out.Failed > 0 {
				return fmt.Errorf("workload %s seed %d: correct=%v failed=%d", w.Name, one.seed, out.Correct, out.Failed)
			}
			for name, m := range out.Metrics {
				values[i%2][name] = append(values[i%2][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", w.Name, i+1, 2*n)
		}
		for _, e := range sp.EndToEnd {
			a, b := values[0][e.Name], values[1][e.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("workload %s did not report %s on every run", w.Name, e.Name)
			}
			row := aaRow{
				Workload: w.Name, Metric: e.Name, MedianA: median(a), MedianB: median(b),
				SpreadA: quartileSpread(a), SpreadB: quartileSpread(b), Bound: e.Bound,
			}
			row.Diff = math.Abs(row.MedianB-row.MedianA) / row.MedianA
			row.Within = row.Diff <= e.Bound
			rows = append(rows, row)
		}
	}
	// One header per workload: same machine and commit, its own sizes.
	var headers []header
	for i := range workloads {
		one := cfg
		one.workload = workloads[i].name
		headers = append(headers, newHeader(one, makePlan(&workloads[i], cfg.seconds, cfg.scale)))
	}
	record := struct {
		Headers    []header `json:"headers"`
		RunsPerSet int      `json:"runs_per_set"`
		Rows       []aaRow  `json:"rows"`
	}{headers, n, rows}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "aa.json"), record); err != nil {
		return err
	}
	fmt.Printf("%-10s %-20s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "spreadA", "spreadB", "bound")
	bad := 0
	for _, r := range rows {
		mark := ""
		if !r.Within {
			mark = "  OVER"
			bad++
		}
		fmt.Printf("%-10s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.Diff, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, mark)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d gated pairs differ by more than their bound between two sets of the same code", bad, len(rows))
	}
	return nil
}
