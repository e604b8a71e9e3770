// Command bench is the repository benchmark: four workloads through
// the paper's flow, the field-sweep engine and the vipiped daemon,
// each timed end to end, checked for correct results, and broken down
// layer by layer in a separate traced pass. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh --workload field_edit --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                 # every workload, untraced and traced
//	bash bench/run.sh compare -old A.json -new B.json
//
// run.sh builds this package and cmd/vipiped into .bench_build first.
// A single-workload run prints one line per metric and, last, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"field_cold", "field_edit", "paper_flow", "daemon_mix"}

// digestOps is how many leading ops each workload's run digest
// covers; every run completes at least that many.
var digestOps = map[string]int{"field_cold": 3, "field_edit": 20, "paper_flow": 3, "daemon_mix": daemonDigestJobs}

// chromeOps bounds how many traced ops the Perfetto file keeps; the
// per-layer summary covers all of them.
const chromeOps = 20

//go:embed golden.json
var goldenJSON []byte

// goldens returns the committed per-op result digests of seed 1.
func goldens() (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "ledger":
			os.Exit(ledgerMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloads, ", ")+"); empty runs all of them in child processes")
	seed := fs.Int64("seed", 1, "input seed: every request, overlay, axis and arrival derives from it")
	seconds := fs.Float64("seconds", 15, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1: traced pass and layer probes, reporting the per-layer metrics")
	vipiped := fs.String("vipiped", ".bench_build/vipiped", "vipiped binary daemon_mix drives")
	runs := fs.Int("runs", 1, "all workloads: untraced runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", "BENCH_result.json", "all workloads: where to write the run set")
	_ = fs.Parse(os.Args[1:])

	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *runs, *out, os.Args[0]))
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3,
		vipiped: *vipiped, work: work, out: ".", probeBudget: 250 * time.Millisecond}
	r, err := runWorkload(context.Background(), *workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.RemoveAll(work)
		os.Exit(2)
	}
	code := emit(os.Stdout, os.Stderr, r, o)
	os.RemoveAll(work)
	os.Exit(code)
}

// runWorkload runs one workload and returns its report; an error means
// the benchmark itself could not run (unknown workload, missing
// daemon binary), not that the program failed.
func runWorkload(ctx context.Context, name string, o opts) (*report, error) {
	g, err := goldens()
	if err != nil {
		return nil, err
	}
	golden := g[name]
	if o.seed != 1 {
		golden = nil
	}
	r := newReport(name)
	switch name {
	case "field_cold":
		runClosed(ctx, newFieldCold(o.seed), r, o, golden, digestOps[name])
	case "field_edit":
		w, err := newFieldEdit(ctx, o.seed)
		if err != nil {
			return nil, err
		}
		runClosed(ctx, w, r, o, golden, digestOps[name])
	case "paper_flow":
		runClosed(ctx, &paperFlow{seed: o.seed}, r, o, golden, digestOps[name])
	case "daemon_mix":
		if _, err := os.Stat(o.vipiped); err != nil {
			return nil, fmt.Errorf("daemon_mix needs the vipiped binary (run.sh builds it): %w", err)
		}
		d, err := newDaemonMix(ctx, o)
		if err != nil {
			return nil, err
		}
		d.run(ctx, r, golden)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
	}
	if o.trace && len(r.trace) > 0 {
		ops := r.trace[:min(len(r.trace), chromeOps)]
		if err := writeChrome(filepath.Join(o.out, "BENCH_"+name+".trace.json"), ops); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("trace file: %v", err))
		}
	}
	return r, nil
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one line per metric ("workload metric value unit n"),
// the diagnostic extras, the run digest and, last, the JSON result; it
// returns the exit code: nonzero on an incorrect result or a failed op.
func emit(stdout, stderr io.Writer, r *report, o opts) int {
	names := e2eMetrics
	if o.trace {
		names = layerMetrics
	}
	metrics := map[string]metricValue{}
	n := r.attempted - r.failed
	for _, name := range names {
		v, ok := r.metrics[name]
		if !ok {
			r.fail("metric %s was not measured", name)
			continue
		}
		metrics[name] = metricValue{Value: v, Unit: metricUnits[name]}
		fmt.Fprintf(stdout, "%s %s %.6g %s %d\n", r.workload, name, v, metricUnits[name], n)
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	extras := make([]string, 0, len(r.extra))
	for k := range r.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(stdout, "%s %s %.6g %s %d\n", r.workload, k, r.extra[k], extraUnit(k), n)
	}
	fmt.Fprintf(stdout, "%s digest %s\n", r.workload, r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", r.workload, p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct || r.failed > 0 {
		return 1
	}
	return 0
}

// extraUnit derives a diagnostic line's unit from its name.
func extraUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_") || strings.HasPrefix(name, "op_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	default:
		return "count"
	}
}
