package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricsManifest pins the per-layer mapping file to the benchmark
// declaration: same metrics, units and directions, each with a layer, an
// end-to-end metric it should move and the workload it shows on.
func TestMetricsManifest(t *testing.T) {
	var bench struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var man struct {
		PerLayer []struct {
			declared
			Layer    string `json:"layer"`
			Moves    string `json:"moves"`
			Workload string `json:"workload"`
		} `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &man)
	if len(man.PerLayer) != len(bench.PerLayer) {
		t.Fatalf("metrics.json lists %d per-layer metrics, BENCHMARK.json %d", len(man.PerLayer), len(bench.PerLayer))
	}
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	gated := map[string]bool{}
	for _, w := range bench.Workloads {
		gated[w.Name] = true
	}
	for i, m := range man.PerLayer {
		if m.declared != bench.PerLayer[i] {
			t.Errorf("per-layer metric %d: metrics.json %+v, BENCHMARK.json %+v", i, m.declared, bench.PerLayer[i])
		}
		if !gated[m.Workload] || !e2e[m.Moves] || m.Layer == "" {
			t.Errorf("%s: layer %q, moves %q on %q is not a declared layer, metric and workload", m.Name, m.Layer, m.Moves, m.Workload)
		}
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload very briefly, untraced and traced, and
// checks that each declared metric is reported with its unit and that no
// request failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the enforcement point six times")
	}
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	for _, wl := range []string{"reapply", "rollout", "churn"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				res, err := run(options{workload: wl, seed: 1, seconds: 1, trace: trace,
					synth: 8, setups: 1, warm: 2000, out: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: reported %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestHistogramQuantile checks the latency histogram against exact
// quantiles of the same samples: within one bucket width (1 ns below
// 64 ns, at most 1/64 of the value above).
func TestHistogramQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	xs := make([]uint32, 200000)
	for i := range xs {
		// Log-normal-ish latencies from tens of ns to milliseconds.
		xs[i] = uint32(20 * (1 + rng.ExpFloat64()) * float64(uint32(1)<<rng.Intn(16)))
		h.add(xs[i])
	}
	h.add(1<<32 - 1)
	xs = append(xs, 1<<32-1)
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(q*float64(len(xs)-1))])
		got := h.quantile(uint64(len(xs)), q)
		if d := math.Abs(got - exact); d > max(1, exact/64) {
			t.Errorf("q=%v: histogram %.1f, exact %.1f", q, got, exact)
		}
	}
}
