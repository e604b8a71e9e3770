package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from seed-1 runs")

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSON checks that the declared metrics, units,
// directions and bounds are exactly what the program emits and judges.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	names = nil
	for _, m := range bj.EndToEnd {
		names = append(names, m.Name)
		spec, ok := e2eSpec[m.Name]
		better := "lower"
		if spec.higherBetter {
			better = "higher"
		}
		if !ok || m.Better != better || m.Bound != spec.bound || m.Unit != metricUnits[m.Name] {
			t.Errorf("end-to-end %s declared %s/%s/%g, program has %s/%s/%g",
				m.Name, m.Unit, m.Better, m.Bound, metricUnits[m.Name], better, spec.bound)
		}
	}
	if !equal(names, e2eMetrics) || len(names) > 16 {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", names, e2eMetrics)
	}
	names = nil
	for _, m := range bj.PerLayer {
		names = append(names, m.Name)
		if m.Unit != metricUnits[m.Name] {
			t.Errorf("per-layer %s declared in %q, program emits %q", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	if !equal(names, layerMetrics) || len(names) > 128 {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", names, layerMetrics)
	}
	for name := range metricUnits {
		if !metricName.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not a valid name", name)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{{10, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.okay {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.okay)
		}
	}
}

// buildVipiped builds the daemon daemon_mix drives.
func buildVipiped(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vipiped")
	cmd := exec.Command("go", "build", "-o", bin, "vipipe/cmd/vipiped")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build vipiped: %v\n%s", err, out)
	}
	return bin
}

// smokeOpts is a workload run cut to a few ops and short probes.
func smokeOpts(t *testing.T, vipiped string, ops int, trace bool) opts {
	return opts{
		seed: 1, seconds: 0.5, trace: trace, ops: ops, setups: 1,
		vipiped: vipiped, work: t.TempDir(), out: t.TempDir(), probeBudget: 20 * time.Millisecond,
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at one or
// two ops through the same code the benchmark runs, and checks each
// run is correct (seed-1 goldens included) and emits exactly its
// declared metric set.
func TestWorkloadsSmoke(t *testing.T) {
	vipiped := buildVipiped(t)
	ctx := context.Background()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			ops := 2
			if w == "field_cold" {
				ops = 1
			}
			o := smokeOpts(t, vipiped, ops, trace)
			r, err := runWorkload(ctx, w, o)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !r.correct || r.failed > 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed: %v", w, trace, r.correct, r.failed, r.attempted, r.problems)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			var got []string
			for k := range r.metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if !equal(got, sorted) {
				t.Errorf("%s trace=%v emits %v, want %v", w, trace, got, sorted)
			}
		}
	}
}

// TestGolden rewrites golden.json from seed-1 runs with -update; the
// smoke test and every seed-1 benchmark run check against it.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	vipiped := buildVipiped(t)
	g := map[string][]string{}
	for _, w := range workloads {
		o := smokeOpts(t, vipiped, digestOps[w], false)
		o.seconds = 2
		r, err := runWorkload(context.Background(), w, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.opDigests) != digestOps[w] {
			t.Fatalf("%s: %d op digests, want %d: %v", w, len(r.opDigests), digestOps[w], r.problems)
		}
		g[w] = r.opDigests
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
