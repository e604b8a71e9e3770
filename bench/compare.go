package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// e2eSpec is each end-to-end metric's direction and regression bound
// (a share of the parent's median), as BENCHMARK.json declares them.
var e2eSpec = map[string]struct {
	higherBetter bool
	bound        float64
}{
	"setup_s":       {false, 0.25},
	"rss_peak_mb":   {false, 0.10},
	"op_ms_p50":     {false, 0.25},
	"op_ms_p90":     {false, 0.25},
	"ops_per_s":     {true, 0.25},
	"cpu_ms_per_op": {false, 0.25},
}

// run is one workload run as a run-set file records it.
type run struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runSet is the file the all-workloads mode writes and compare reads.
type runSet struct {
	Meta map[string]string `json:"meta"`
	Runs []run             `json:"runs"`
}

// ledger is bench/ledger/*.json: named run sets of one commit, each
// with its summary.
type ledger struct {
	Meta    map[string]string                        `json:"meta"`
	Sets    map[string][]run                         `json:"sets"`
	Summary map[string]map[string]map[string]summary `json:"summary"`
}

// summary is one (workload, metric) of a run set.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(runs []run) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, w := range workloads {
		for _, m := range e2eMetrics {
			vs := values(runs, w, m)
			if len(vs) == 0 {
				continue
			}
			if out[w] == nil {
				out[w] = map[string]summary{}
			}
			out[w][m] = summary{Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), N: len(vs)}
		}
	}
	return out
}

// values returns a metric of a workload's untraced runs in run order.
func values(runs []run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v)
		}
	}
	return out
}

// loadRuns reads a run-set file, or one set of a ledger as
// "ledger.json#name", with the machine it was measured on.
func loadRuns(spec string) (runSet, error) {
	path, set, isLedger := strings.Cut(spec, "#")
	b, err := os.ReadFile(path)
	if err != nil {
		return runSet{}, err
	}
	if isLedger {
		var l ledger
		if err := json.Unmarshal(b, &l); err != nil {
			return runSet{}, fmt.Errorf("%s: %w", path, err)
		}
		runs, ok := l.Sets[set]
		if !ok {
			return runSet{}, fmt.Errorf("%s has no run set %q", path, set)
		}
		return runSet{Meta: l.Meta, Runs: runs}, nil
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return runSet{}, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict is compare's judgement of one (workload, metric).
type verdict struct {
	workload, metric   string
	old, new           summary
	change             float64 // relative median change, positive = worse
	wins, losses, pair int
	outcome            string // gain, ok, unresolved or REGRESSION
}

// judge applies the rules of a performance claim to one metric: a gain
// needs at least nine wins in ten alternating pairs and a median gap
// beyond the parent's interquartile range; a regression is a median
// worse by more than the bound; a spread wider than the bound leaves
// the metric unresolved unless every new run beats every old one.
func judge(workload, metric string, old, new []float64) verdict {
	spec := e2eSpec[metric]
	v := verdict{workload: workload, metric: metric,
		old: summarize1(old), new: summarize1(new)}
	worse := func(a, b float64) bool { // a worse than b
		if spec.higherBetter {
			return a < b
		}
		return a > b
	}
	v.change = (v.new.Median - v.old.Median) / v.old.Median
	if spec.higherBetter {
		v.change = -v.change
	}
	v.pair = min(len(old), len(new))
	for i := 0; i < v.pair; i++ {
		switch {
		case worse(old[i], new[i]):
			v.wins++
		case worse(new[i], old[i]):
			v.losses++
		}
	}
	spread := math.Max((v.old.Q3-v.old.Q1)/v.old.Median, (v.new.Q3-v.new.Q1)/v.new.Median)
	allBetter := true
	for _, a := range new {
		for _, b := range old {
			if !worse(b, a) {
				allBetter = false
			}
		}
	}
	switch {
	case v.pair > 0 && float64(v.wins) >= 0.9*float64(v.pair) &&
		math.Abs(v.new.Median-v.old.Median) > v.old.Q3-v.old.Q1:
		v.outcome = "gain"
	case v.change > spec.bound:
		v.outcome = "REGRESSION"
	case spread > spec.bound && !allBetter:
		v.outcome = "unresolved"
	default:
		v.outcome = "ok"
	}
	return v
}

func summarize1(vs []float64) summary {
	return summary{Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), N: len(vs)}
}

// digestFailures lists runs that failed, and (workload, seed) pairs
// whose result digests differ between the sets: a performance change
// must leave every simulated result bit-identical.
func digestFailures(old, new []run) []string {
	var out []string
	seen := map[string]string{}
	for _, r := range old {
		seen[fmt.Sprintf("%s/%d", r.Workload, r.Seed)] = r.Digest
	}
	for _, set := range [][]run{old, new} {
		for _, r := range set {
			if !r.Correct || r.Failed > 0 {
				out = append(out, fmt.Sprintf("%s seed %d: correct=%v, %d of %d ops failed", r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted))
			}
		}
	}
	for _, r := range new {
		if d, ok := seen[fmt.Sprintf("%s/%d", r.Workload, r.Seed)]; ok && d != r.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: result digest %.12s differs from %.12s", r.Workload, r.Seed, r.Digest, d))
		}
	}
	sort.Strings(out)
	return out
}

// compare judges every (workload, e2e metric) present in both sets and
// returns the verdicts plus the digest failures.
func compare(old, new []run) ([]verdict, []string) {
	var out []verdict
	for _, w := range workloads {
		for _, m := range e2eMetrics {
			a, b := values(old, w, m), values(new, w, m)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			out = append(out, judge(w, m, a, b))
		}
	}
	return out, digestFailures(old, new)
}

// compareMain is `bench compare -old A -new B`; it exits nonzero on a
// regression or a digest failure.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldSpec := fs.String("old", "", "parent run set: a BENCH_result.json, or ledger.json#set")
	newSpec := fs.String("new", "", "change run set, same forms")
	if err := fs.Parse(args); err != nil || *oldSpec == "" || *newSpec == "" {
		fmt.Fprintln(os.Stderr, "usage: bench compare -old A.json -new B.json")
		return 2
	}
	old, err := loadRuns(*oldSpec)
	if err == nil {
		var new runSet
		if new, err = loadRuns(*newSpec); err == nil {
			return printCompare(stdout, old.Runs, new.Runs)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func printCompare(w io.Writer, old, new []run) int {
	verdicts, failures := compare(old, new)
	fmt.Fprintf(w, "%-11s %-14s %28s %28s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "worse by", "wins", "verdict")
	code := 0
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-11s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %3d/%-2d  %s\n",
			v.workload, v.metric, v.old.Median, v.old.Q1, v.old.Q3, v.new.Median, v.new.Q1, v.new.Q3,
			100*v.change, v.wins, v.pair, v.outcome)
		if v.outcome == "REGRESSION" {
			code = 1
		}
	}
	for _, f := range failures {
		fmt.Fprintln(w, "FAILED:", f)
		code = 1
	}
	return code
}

// runAll runs every workload in its own child process — untraced runs
// runs times on successive seeds, then one traced run each — prints
// their lines, and writes the run set to out.
func runAll(seed int64, seconds float64, runs int, out, self string) int {
	rs := runSet{Meta: machineMeta()}
	rs.Meta["seconds"] = fmt.Sprint(seconds)
	code := 0
	type job struct {
		workload string
		seed     int64
		trace    bool
	}
	var jobs []job
	for k := 0; k < runs; k++ {
		for _, w := range workloads {
			jobs = append(jobs, job{w, seed + int64(k), false})
		}
	}
	for _, w := range workloads {
		jobs = append(jobs, job{w, seed, true})
	}
	for _, j := range jobs {
		trace := "0"
		if j.trace {
			trace = "1"
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", j.workload, "--seed", fmt.Sprint(j.seed),
			"--seconds", fmt.Sprint(seconds), "--trace", trace)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %s: %v\n", j.workload, j.seed, trace, err)
			code = 1
		}
		r, err := parseChild(buf.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.workload, err)
			code = 1
			continue
		}
		r.Workload, r.Seed, r.Trace = j.workload, j.seed, j.trace
		rs.Runs = append(rs.Runs, r)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return code
}

// parseChild reads a single-workload run's output: the digest line and
// the JSON result on the last line.
func parseChild(out []byte) (run, error) {
	var r run
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 && f[1] == "digest" {
			r.Digest = f[2]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	r.Correct, r.Attempted, r.Failed = res.Correct, res.Attempted, res.Failed
	r.Metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.Metrics[k] = v.Value
	}
	return r, nil
}

// machineMeta records what the numbers were measured on.
func machineMeta() map[string]string {
	meta := map[string]string{
		"nproc":  fmt.Sprint(runtime.NumCPU()),
		"go":     runtime.Version(),
		"goarch": runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				meta["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return meta
}

// ledgerMain is `bench ledger -commit ID -out FILE a.json b.json ...`:
// it files run sets under the names a, b, ... with their summaries and
// the first set's machine, the committed record later changes cite.
func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	commit := fs.String("commit", "", "commit the run sets measured")
	out := fs.String("out", "", "ledger file to write")
	if err := fs.Parse(args); err != nil || *commit == "" || *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench ledger -commit ID -out FILE set.json...")
		return 2
	}
	l := ledger{Sets: map[string][]run{}, Summary: map[string]map[string]map[string]summary{}}
	for k, path := range fs.Args() {
		rs, err := loadRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench ledger:", err)
			return 2
		}
		if k == 0 {
			l.Meta = map[string]string{"commit": *commit}
			for key, v := range rs.Meta {
				l.Meta[key] = v
			}
		}
		name := string(rune('a' + k))
		l.Sets[name], l.Summary[name] = rs.Runs, summarize(rs.Runs)
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench ledger:", err)
		return 2
	}
	return 0
}
