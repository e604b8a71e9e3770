package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vipipe/internal/obs"
)

// opts is one workload run's settings, all taken from the command line.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// ops > 0 runs exactly that many ops per pass instead of timing
	// the pass; the smoke tests use it to stay fast.
	ops int
	// setups is how many times the workload sets up; setup_s is the
	// median.
	setups int
	// vipiped is the daemon binary daemon_mix drives; work is the
	// directory (inside the checkout) for store dirs and temporary files.
	vipiped string
	work    string
	// out is where trace files go; probeBudget is how long each layer
	// probe measures.
	out         string
	probeBudget time.Duration
}

// report is what one workload run produces: the contract fields plus
// the human-readable extras printed before the JSON line.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	// extra holds diagnostic values that are not contract metrics
	// (per-kind trace costs, service timings), printed as lines only.
	extra map[string]float64
	// digest is SHA-256 over opDigests, the result digests of the
	// first digestOps ops; equal digests mean identical simulated
	// results.
	digest    string
	opDigests []string
	// problems lists every correctness failure, for stderr.
	problems []string
	trace    []traceOp
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true, metrics: map[string]float64{}, extra: map[string]float64{}}
}

// fail records a correctness failure.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metricUnits gives the unit of every metric the benchmark emits; a
// name missing here is a bug caught by the smoke test.
var metricUnits = map[string]string{
	"setup_s":       "s",
	"rss_peak_mb":   "MiB",
	"op_ms_p50":     "ms",
	"op_ms_p90":     "ms",
	"ops_per_s":     "1/s",
	"cpu_ms_per_op": "ms",

	"sta.kernel_run_us":             "us",
	"sta.kernel_rerun_us":           "us",
	"sta.kernel_runframe_us":        "us",
	"sta.kernel_allocs":             "count",
	"sta.kernel_build_us":           "us",
	"sta.analyzer_runinto_us":       "us",
	"yield.sample_us":               "us",
	"yield.overlay_sample_us":       "us",
	"yield.draw_frac":               "frac",
	"yield.shard_fixed_us":          "us",
	"yield.surface_us":              "us",
	"mc.sample_us":                  "us",
	"tmodel.extract_ms":             "ms",
	"tmodel.eval_raise_us":          "us",
	"tmodel.eval_overlay_us":        "us",
	"tmodel.fallback_us":            "us",
	"pipeline.memstore_hit_ns":      "ns",
	"pipeline.cache_hit_ns":         "ns",
	"pipeline.tiered_hit_ns":        "ns",
	"pipeline.disk_put_us":          "us",
	"pipeline.disk_get_us":          "us",
	"pipeline.request_node_us":      "us",
	"pipeline.yield_graph_build_us": "us",
	"service.engine_hit_us":         "us",
	"service.job_roundtrip_us":      "us",
	"yield.shards_computed_per_op":  "count",
	"yield.shards_cached_per_op":    "count",
	"go.alloc_mb_per_op":            "MiB",
	"go.gc_per_op":                  "count",
	"trace.busy_ms_per_op":          "ms",
	"trace.queue_ms_per_op":         "ms",
	"trace.spans_per_op":            "count",
	"trace.hit_frac":                "frac",
	"trace.overhead_frac":           "frac",
	"attr.unattributed_frac":        "frac",
}

// e2eMetrics and layerMetrics are the two metric sets in the order
// BENCHMARK.json declares them: --trace 0 emits the first, --trace 1
// the second.
var e2eMetrics = []string{"setup_s", "rss_peak_mb", "op_ms_p50", "op_ms_p90", "ops_per_s", "cpu_ms_per_op"}

var layerMetrics = []string{
	"sta.kernel_run_us", "sta.kernel_rerun_us", "sta.kernel_runframe_us", "sta.kernel_allocs",
	"sta.kernel_build_us", "sta.analyzer_runinto_us",
	"yield.sample_us", "yield.overlay_sample_us", "yield.shard_fixed_us", "yield.draw_frac",
	"yield.surface_us",
	"mc.sample_us",
	"tmodel.extract_ms", "tmodel.eval_raise_us", "tmodel.eval_overlay_us", "tmodel.fallback_us",
	"pipeline.memstore_hit_ns", "pipeline.cache_hit_ns", "pipeline.tiered_hit_ns",
	"pipeline.disk_put_us", "pipeline.disk_get_us", "pipeline.request_node_us",
	"pipeline.yield_graph_build_us",
	"service.engine_hit_us", "service.job_roundtrip_us",
	"yield.shards_computed_per_op", "yield.shards_cached_per_op",
	"go.alloc_mb_per_op", "go.gc_per_op",
	"trace.busy_ms_per_op", "trace.queue_ms_per_op", "trace.spans_per_op", "trace.hit_frac",
	"trace.overhead_frac", "attr.unattributed_frac",
}

// ---------------------------------------------------------------- //
// Order statistics.

// quantile returns the q-quantile (0..1) of vs by linear
// interpolation between closest ranks; vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// tailPercentiles is the ladder tail percentiles are chosen from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it, the tail a run of n
// samples can report honestly; ok is false when even the median has
// fewer than ten beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		// The tolerance absorbs float error in 100-p (99.9).
		if float64(n)*(100-tailPercentiles[i])/100 >= 10-1e-6 {
			return tailPercentiles[i], true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------- //
// Process accounting.

// cpuSelf returns the user+system CPU time this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on every Linux architecture Go supports.
const clockTicks = 100

// cpuOf returns the user+system CPU time of another process.
func cpuOf(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// the 12th and 13th of them.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a
// process ("self" for this one).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// memSnap is the slice of runtime.MemStats the per-op GC metrics use.
type memSnap struct{ alloc, gcs uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC)}
}

// perOp sets the go.* metrics from a MemStats delta over n ops.
func (m memSnap) perOp(r *report, end memSnap, n int) {
	if n == 0 {
		return
	}
	r.metrics["go.alloc_mb_per_op"] = float64(end.alloc-m.alloc) / (1 << 20) / float64(n)
	r.metrics["go.gc_per_op"] = float64(end.gcs-m.gcs) / float64(n)
}

// ---------------------------------------------------------------- //
// Digests.

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digests accumulates per-op result digests in op order and checks
// the first ones against the committed seed-1 goldens.
type digests struct {
	keep   int
	golden []string
	ops    []string
}

// add records op i's result; it reports a golden mismatch as an error.
func (d *digests) add(i int, res []byte) error {
	dg := digestOf(res)
	if i < d.keep && i == len(d.ops) {
		d.ops = append(d.ops, dg)
	}
	if i < len(d.golden) && d.golden[i] != dg {
		return fmt.Errorf("op %d result digest %s differs from golden %s", i, dg[:12], d.golden[i][:12])
	}
	return nil
}

// record sets the report's run digest: SHA-256 over the recorded
// per-op digests.
func (d *digests) record(r *report) {
	r.opDigests = d.ops
	r.digest = digestOf([]byte(strings.Join(d.ops, "\n")))
}

// ---------------------------------------------------------------- //
// The closed loop shared by the in-process workloads.

// closed is an in-process workload driven by one client that sends
// the next op when the previous one returns.
type closed interface {
	// setup builds fresh program state and warms its caches; ops run
	// against the state of the latest setup.
	setup(ctx context.Context) error
	// op runs op i and returns its result in wire JSON. The inputs of
	// op i depend only on the seed and i.
	op(ctx context.Context, i int) ([]byte, error)
	// check verifies op i's result against invariants that hold for
	// every input, cheaply enough to run on every op.
	check(i int, res []byte) error
	// verify recomputes op 0 through a path that shares no cache or
	// scheduler with the workload and compares the bytes.
	verify(ctx context.Context, res0 []byte) error
	// shards returns the engine's computed and cached shard counters
	// (zero for workloads without field sweeps).
	shards() (computed, cached int64)
	// core returns the core profile the layer probes time.
	core() probeCore
}

// pass is the timing of one loop over ops.
type pass struct {
	latMS  []float64
	cpuMS  []float64
	res0   []byte
	digest []string // per-op digests by op index ("" for a failed op)
	traces []traceOp
}

// runPass runs ops 0,1,... until the deadline (or o.ops ops), with an
// obs tracer on each op's context when traced. Failed ops count in
// the report; they do not stop the pass.
func runPass(ctx context.Context, w closed, r *report, o opts, seconds float64, traced bool, limit int, dg *digests) pass {
	var p pass
	start := obs.Now()
	for i := 0; ; i++ {
		if o.ops > 0 && i >= o.ops || limit > 0 && i >= limit {
			break
		}
		if o.ops == 0 && obs.Since(start).Seconds() >= seconds {
			break
		}
		opCtx := ctx
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer(fmt.Sprintf("op-%d", i), r.workload)
			opCtx = obs.WithTracer(ctx, tr)
		}
		c0, t0 := cpuSelf(), obs.Now()
		res, err := w.op(opCtx, i)
		lat, cpu := obs.Since(t0), cpuSelf()-c0
		r.attempted++
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("op %d: %v", i, err))
		} else if err = w.check(i, res); err != nil {
			r.fail("op %d: %v", i, err)
		} else if dg != nil {
			if err = dg.add(i, res); err != nil {
				r.fail("%v", err)
			}
		}
		if err != nil {
			r.failed++
			p.digest = append(p.digest, "")
			continue
		}
		if i == 0 {
			p.res0 = res
		}
		p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
		p.cpuMS = append(p.cpuMS, float64(cpu)/float64(time.Millisecond))
		p.digest = append(p.digest, digestOf(res))
		if tr != nil {
			p.traces = append(p.traces, traceOp{index: i, latMS: p.latMS[len(p.latMS)-1], trace: tr.Finish()})
		}
	}
	return p
}

// setupTimed runs w.setup n times and returns each duration in s.
func setupTimed(ctx context.Context, w closed, n int) ([]float64, error) {
	var out []float64
	for k := 0; k < n; k++ {
		// Collect the previous state first, so the measured set-up
		// does not pay for its predecessor's garbage.
		runtime.GC()
		t0 := obs.Now()
		if err := w.setup(ctx); err != nil {
			return nil, err
		}
		out = append(out, obs.Since(t0).Seconds())
	}
	return out, nil
}

// runClosed measures an in-process workload: with o.trace unset the
// end-to-end metrics over one pass after o.setups set-ups; with it
// set an untraced and a traced half-pass over fresh state, then the
// layer probes.
func runClosed(ctx context.Context, w closed, r *report, o opts, golden []string, digestOps int) {
	dg := &digests{keep: digestOps, golden: golden}
	if !o.trace {
		setups, err := setupTimed(ctx, w, o.setups)
		if err != nil {
			r.fail("setup: %v", err)
			return
		}
		p := runPass(ctx, w, r, o, o.seconds, false, 0, dg)
		dg.record(r)
		if len(p.latMS) == 0 {
			r.fail("no op completed")
			return
		}
		rss, err := peakRSSMiB("self")
		if err != nil {
			r.fail("rss: %v", err)
		}
		r.metrics["setup_s"] = median(setups)
		r.metrics["rss_peak_mb"] = rss
		r.metrics["op_ms_p50"] = median(p.latMS)
		r.metrics["op_ms_p90"] = quantile(p.latMS, 0.9)
		r.metrics["ops_per_s"] = float64(len(p.latMS)) / (sum(p.latMS) / 1000)
		r.metrics["cpu_ms_per_op"] = sum(p.cpuMS) / float64(len(p.cpuMS))
		if tp, ok := tailPercentile(len(p.latMS)); ok {
			r.extra[fmt.Sprintf("tail.op_ms_p%g", tp)] = quantile(p.latMS, tp/100)
		}
		if p.res0 == nil {
			r.fail("op 0 failed: nothing to verify")
		} else if err := w.verify(ctx, p.res0); err != nil {
			r.fail("verify op 0: %v", err)
		}
		return
	}

	// Traced run: both halves start from a fresh set-up so they run the
	// same ops against the same state, and their results must agree.
	half := o.seconds / 2
	if _, err := setupTimed(ctx, w, 1); err != nil {
		r.fail("setup: %v", err)
		return
	}
	c0, s0 := w.shards()
	m0 := readMem()
	plain := runPass(ctx, w, r, o, half, false, 0, dg)
	m0.perOp(r, readMem(), len(plain.latMS))
	c1, s1 := w.shards()
	dg.record(r)
	if len(plain.latMS) == 0 {
		r.fail("no op completed")
		return
	}
	n := float64(len(plain.latMS))
	r.metrics["yield.shards_computed_per_op"] = float64(c1-c0) / n
	r.metrics["yield.shards_cached_per_op"] = float64(s1-s0) / n
	cpuPerOp := sum(plain.cpuMS) / n

	if _, err := setupTimed(ctx, w, 1); err != nil {
		r.fail("setup: %v", err)
		return
	}
	traced := runPass(ctx, w, r, o, half, true, len(plain.latMS), nil)
	for i, d := range traced.digest {
		if d != "" && plain.digest[i] != "" && d != plain.digest[i] {
			r.fail("op %d: traced result differs from untraced", i)
		}
	}
	m := len(traced.latMS)
	if m == 0 {
		r.fail("no traced op completed")
		return
	}
	r.metrics["trace.overhead_frac"] = median(traced.latMS)/median(plain.latMS[:m]) - 1
	r.trace = traced.traces
	tm := summarizeTraces(r, traced.traces)
	pr, err := runProbes(ctx, w.core(), o)
	if err != nil {
		r.fail("probes: %v", err)
		return
	}
	pr.into(r)
	r.metrics["attr.unattributed_frac"] = 1 - tm.attributed(pr)/cpuPerOp
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
