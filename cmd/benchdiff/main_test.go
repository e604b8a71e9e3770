package main

import (
	"os"
	"path/filepath"
	"testing"
)

// stream builds a minimal go test -json file with the given benchmark
// output lines.
func stream(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	var b []byte
	b = append(b, `{"Action":"start","Package":"vipipe"}`+"\n"...)
	for _, l := range lines {
		ev := `{"Action":"output","Package":"vipipe","Output":"` + l + `\n"}` + "\n"
		b = append(b, ev...)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	path := stream(t,
		`goos: linux`,
		`BenchmarkServiceScenarioSweep/cold         \t       3\t 389612665 ns/op\t24926704 B/op`,
		`BenchmarkServiceScenarioSweep/warm-8       \t    1000\t   1201000 ns/op`,
		`BenchmarkWhatIf/full_sta                   \t      10\t 100000000 ns/op`,
	)
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if res["BenchmarkServiceScenarioSweep/cold"] != 389612665 {
		t.Errorf("cold = %v", res["BenchmarkServiceScenarioSweep/cold"])
	}
	// The -8 GOMAXPROCS suffix is stripped.
	if res["BenchmarkServiceScenarioSweep/warm"] != 1201000 {
		t.Errorf("warm = %v (suffix not stripped? %v)", res["BenchmarkServiceScenarioSweep/warm"], res)
	}
	if len(res) != 3 {
		t.Errorf("parsed %d results; want 3: %v", len(res), res)
	}
}

// TestParseBenchSplitEvents: go test -json flushes the benchmark name
// and its timing as separate output events; the parser must join them.
func TestParseBenchSplitEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "split.json")
	raw := `{"Action":"output","Output":"BenchmarkWhatIf/warm_composed               \t"}` + "\n" +
		`{"Action":"output","Output":"  500000\t      2400 ns/op\n"}` + "\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if res["BenchmarkWhatIf/warm_composed"] != 2400 {
		t.Errorf("split-event line parsed as %v", res)
	}
}

func TestParseBenchCommittedBaseline(t *testing.T) {
	res, err := parseBench(filepath.Join("testdata", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		if _, err := speedup(res, g); err != nil {
			t.Errorf("committed baseline cannot answer gate %s: %v", g.Name, err)
		}
	}
}

func benchSet(cold, warm, dirty, sta, composed float64) map[string]float64 {
	return map[string]float64{
		"BenchmarkServiceScenarioSweep/cold":     cold,
		"BenchmarkServiceScenarioSweep/warm":     warm,
		"BenchmarkFieldSweep/field64/cold":       cold,
		"BenchmarkFieldSweep/field64/warm_dirty": dirty,
		"BenchmarkWhatIf/full_sta":               sta,
		"BenchmarkWhatIf/warm_composed":          composed,
	}
}

func TestCompareGates(t *testing.T) {
	old := benchSet(1000, 10, 100, 1000, 1) // speedups: 100x, 10x, 1000x
	// Within tolerance: same ratios, absolute times 3x slower.
	ok := benchSet(3000, 30, 300, 3000, 3)
	if failed := compare(os.Stdout, old, ok, 0.25); len(failed) != 0 {
		t.Errorf("scaled-but-equal ratios failed: %v", failed)
	}
	// The warm scenario path regressed 4x: 100x -> 25x speedup.
	bad := benchSet(1000, 40, 100, 1000, 1)
	failed := compare(os.Stdout, old, bad, 0.25)
	if len(failed) != 1 || failed[0] != "scenario_sweep_warm" {
		t.Errorf("regression verdicts = %v; want [scenario_sweep_warm]", failed)
	}
	// A missing fresh benchmark is a failure, not a silent skip.
	missing := benchSet(1000, 10, 100, 1000, 1)
	delete(missing, "BenchmarkWhatIf/warm_composed")
	failed = compare(os.Stdout, old, missing, 0.25)
	if len(failed) != 1 || failed[0] != "whatif_composed" {
		t.Errorf("missing-bench verdicts = %v; want [whatif_composed]", failed)
	}
}
