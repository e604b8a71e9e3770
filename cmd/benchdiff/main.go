// Command benchdiff guards the repo's committed benchmark baseline:
// it parses two `go test -json` benchmark streams (the committed
// cmd/benchdiff/testdata/baseline.json and a fresh run) and compares the gated speedup
// ratios — warm-path wins the paper's serving architecture depends
// on. A gated ratio regressing by more than -max-regress fails the
// run with a per-ratio report; absolute ns/op are never compared, so
// a slower CI machine does not trip the gate.
//
//	benchdiff -old cmd/benchdiff/testdata/baseline.json -new BENCH_fresh.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// ratioGate is one guarded speedup: base ns/op over fast ns/op.
type ratioGate struct {
	Name string
	Base string // the slow benchmark (cold / exact path)
	Fast string // the fast benchmark the architecture buys
}

// gates are the speedups the repo's perf claims rest on.
var gates = []ratioGate{
	{"scenario_sweep_warm", "BenchmarkServiceScenarioSweep/cold", "BenchmarkServiceScenarioSweep/warm"},
	{"field64_warm_dirty", "BenchmarkFieldSweep/field64/cold", "BenchmarkFieldSweep/field64/warm_dirty"},
	{"whatif_composed", "BenchmarkWhatIf/full_sta", "BenchmarkWhatIf/warm_composed"},
}

// benchLine matches a benchmark result inside a test-json Output
// field, tolerating the -N GOMAXPROCS suffix fresh runs carry.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:[eE][+-]?\d+)?) ns/op`)

type event struct {
	Action string
	Output string
}

// parseBench extracts benchmark-name -> ns/op from a go test -json
// stream (later lines win, matching go test's own behavior on
// reruns). The stream splits one terminal line across several output
// events — the benchmark name flushes before the timing — so events
// are reassembled into lines before matching.
func parseBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	var carry string
	record := func(line string) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return
		}
		if ns, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = ns
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // tolerate non-JSON noise in the stream
		}
		if ev.Action != "output" {
			continue
		}
		carry += ev.Output
		for {
			nl := strings.IndexByte(carry, '\n')
			if nl < 0 {
				break
			}
			record(carry[:nl])
			carry = carry[nl+1:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	record(carry)
	if len(out) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark results in %s", path)
	}
	return out, nil
}

// speedup returns base/fast for a gate, or an error naming what is
// missing.
func speedup(res map[string]float64, g ratioGate) (float64, error) {
	base, ok := res[g.Base]
	if !ok {
		return 0, fmt.Errorf("benchdiff: %s: missing %s", g.Name, g.Base)
	}
	fast, ok := res[g.Fast]
	if !ok {
		return 0, fmt.Errorf("benchdiff: %s: missing %s", g.Name, g.Fast)
	}
	if fast <= 0 {
		return 0, fmt.Errorf("benchdiff: %s: non-positive ns/op for %s", g.Name, g.Fast)
	}
	return base / fast, nil
}

// compare evaluates every gate, writing one line per gate, and
// returns the names of gates whose fresh speedup ratio fell more than
// maxRegress below the committed one.
func compare(w *os.File, old, fresh map[string]float64, maxRegress float64) []string {
	var failed []string
	for _, g := range gates {
		oldR, err := speedup(old, g)
		if err != nil {
			fmt.Fprintf(w, "%-22s SKIP (baseline: %v)\n", g.Name, err)
			continue
		}
		newR, err := speedup(fresh, g)
		if err != nil {
			fmt.Fprintf(w, "%-22s FAIL (%v)\n", g.Name, err)
			failed = append(failed, g.Name)
			continue
		}
		floor := oldR * (1 - maxRegress)
		verdict := "ok"
		if newR < floor {
			verdict = "REGRESSED"
			failed = append(failed, g.Name)
		}
		fmt.Fprintf(w, "%-22s baseline %8.1fx  fresh %8.1fx  floor %8.1fx  %s\n",
			g.Name, oldR, newR, floor, verdict)
	}
	return failed
}

func main() {
	oldPath := flag.String("old", "cmd/benchdiff/testdata/baseline.json", "committed baseline (go test -json stream)")
	newPath := flag.String("new", "BENCH_fresh.json", "fresh benchmark run (go test -json stream)")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated fractional drop of a gated speedup ratio")
	flag.Parse()

	old, err := parseBench(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fresh, err := parseBench(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := compare(os.Stdout, old, fresh, *maxRegress)
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d gated speedup(s) regressed >%.0f%%: %v\n",
			len(failed), *maxRegress*100, failed)
		os.Exit(1)
	}
	fmt.Println("benchdiff: all gated speedups within tolerance")
}
