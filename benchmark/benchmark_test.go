package main

import (
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

func sameNames(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	var extra, missing []string
	for n, m := range got {
		switch unit, ok := units[n]; {
		case !ok:
			extra = append(extra, n)
		case unit != m.Unit:
			t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", what, n, m.Unit, unit)
		}
		if !name.MatchString(n) {
			t.Errorf("%s: %q is not a valid metric name", what, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s %s = %v", what, n, m.Value)
		}
	}
	for n := range units {
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra)+len(missing) > 0 {
		t.Errorf("%s: emitted but not in BENCHMARK.json %v; in BENCHMARK.json but not emitted %v", what, extra, missing)
	}
}

// TestSmoke runs every workload traced at a hundredth of its size and
// checks the contract BENCHMARK.json states: no failed operation, answers
// equal to the oracle's, and exactly the named metrics with their units.
func TestSmoke(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, seconds: 15, scale: 0.01, trace: true, outDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Errorf("answers differ from the oracle: %s", res.mismatch)
			}
			if res.guard != "" {
				t.Errorf("open loop invalid: %s", res.guard)
			}
			rep := res.report(cfg)
			if rep.Outcome.Failed != 0 || rep.Outcome.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rep.Outcome.Attempted, rep.Outcome.Failed)
			}
			e2e, samples := res.endToEnd()
			sameNames(t, "end-to-end", e2e, sp.EndToEnd)
			sameNames(t, "per-layer", res.layers, sp.PerLayer)
			for n, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", n, m.Value)
				}
				if samples[n] == 0 {
					t.Errorf("%s reports no sample count", n)
				}
			}
			if _, err := os.Stat(res.traceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
