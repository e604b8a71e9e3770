// Package mc is the Monte Carlo statistical static timing analysis
// engine of the flow (paper Section 4.3): it draws fabricated-chip
// instances from the process-variation model, re-times the placed
// netlist for each, and characterizes the per-pipeline-stage
// critical-path (slack) distributions — including the normal fit with
// a chi-square goodness-of-fit test at 95% confidence and the
// classification of timing-violation scenarios that drives voltage
// island generation (paper Section 4.4).
package mc

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/obs"
	"vipipe/internal/sta"
	"vipipe/internal/stats"
	"vipipe/internal/variation"
)

// Options configures a Monte Carlo run.
type Options struct {
	Samples int
	Seed    int64
	ClockPS float64
	Workers int // 0 = GOMAXPROCS
	// Derate composes the slack-recovery factors into every sample
	// (nil = none).
	Derate []float64
	// PanicTolerance is the number of samples allowed to fail with a
	// recovered worker panic before the whole run errors out. Within
	// the tolerance a panicked sample degrades to a skip recorded in
	// Result.Skipped. Zero (the default) tolerates none.
	PanicTolerance int

	// hookSample, when set by tests, runs at the top of every sample
	// computation; it may panic (exercising recovery) or cancel a
	// context (exercising mid-run cancellation).
	hookSample func(sample int)
}

// StageDist is the sampled slack distribution of one pipeline stage.
type StageDist struct {
	Stage     netlist.Stage
	SlackPS   []float64 // per-sample worst slack of the stage
	Fit       stats.Normal
	GOF       stats.GOFResult // chi-square goodness of fit (the paper's test)
	KS        stats.GOFResult // Kolmogorov-Smirnov, binning-free complement
	FitErr    string          // why the normal fit failed ("" = it did not)
	ViolFrac  float64         // fraction of samples with negative slack
	ViolProb  float64         // P(slack < 0) under the normal fit
	Endpoints int             // endpoints in this stage
}

// Violates reports whether the stage's distribution breaks the nominal
// slack-met condition at the given yield threshold.
func (d *StageDist) Violates(alpha float64) bool {
	return d.ViolProb > alpha
}

// Result is a full Monte Carlo characterization at one chip position.
type Result struct {
	Pos     variation.Pos
	ClockPS float64
	// Samples counts the chip samples that actually contributed to
	// the distributions. It equals Requested on a clean run, and is
	// smaller when samples were skipped (worker panics within the
	// tolerance) or the run was cancelled midway.
	Samples int
	// Requested is the sample count the run was asked for.
	Requested int
	// Skipped lists the sample indices dropped by recovered worker
	// panics (within Options.PanicTolerance).
	Skipped []int

	PerStage map[netlist.Stage]*StageDist
	// CritPS is the distribution of the global critical path delay.
	CritPS []float64
	// StageCriticals counts, per stage, how often each endpoint was
	// that stage's critical (worst-slack) endpoint across samples:
	// the "signal paths that can become critical under process
	// variations" that decide where Razor sensors go (Section 4.4).
	StageCriticals map[netlist.Stage]map[int]int
}

// sampleBatch is the structure-of-arrays per-sample outcome storage of
// one Run: workers write disjoint sample slots, the fold reads columns.
// It replaces the former per-sample per-stage map bookkeeping.
type sampleBatch struct {
	done         []bool
	panicked     []*flowerr.PanicError
	crit         []float64
	stagePresent []uint8 // bitmask over netlist.Stage (NumStages <= 8)
	stageSlack   [netlist.NumStages][]float64
	stageWorst   [netlist.NumStages][]int32
}

// Run performs the Monte Carlo SSTA for a core placed at pos with
// every cell at low Vdd: NewRunner followed by one Runner.Run.
//
// The run honors ctx: cancellation or deadline expiry stops dispatch
// immediately and in-flight workers abandon their queues at the next
// sample boundary, so Run returns within roughly one sample's latency.
// On cancellation the error matches flowerr.ErrCancelled and the
// returned Result (non-nil when at least one sample finished) holds
// the distributions over the samples completed so far.
//
// A panic inside a worker is recovered and converted into a
// flowerr.PanicError carrying the sample index and stack. Up to
// Options.PanicTolerance panicked samples degrade to skips recorded in
// Result.Skipped; beyond that Run fails with an error matching
// flowerr.ErrWorkerPanic.
func Run(ctx context.Context, a *sta.Analyzer, model *variation.Model, pos variation.Pos, opts Options) (*Result, error) {
	r, err := NewRunner(a, model, pos, opts)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, nil)
}

// Runner holds the per-worker sample cores of a run at one position
// (kernels, samplers over the position's systematic gate-length map,
// buffers), so that the same sampled chips can be run again under
// other supply domains: the island search scores every candidate slice
// of an island this way. No chip outlives its run: each run draws,
// bounds and times every sample afresh. A Runner is not safe for
// concurrent use.
type Runner struct {
	pos   variation.Pos
	opts  Options
	chips []*Chip
}

// NewRunner builds the sample cores of a run at pos under opts: one
// Chip per worker, all forked from one core before any of them draws,
// so they share the position's systematic gate-length map and the
// bracket tables. Each Run names its own supply domains.
func NewRunner(a *sta.Analyzer, model *variation.Model, pos variation.Pos, opts Options) (*Runner, error) {
	if opts.Samples < 2 {
		return nil, flowerr.BadInputf("mc: need at least 2 samples, got %d", opts.Samples)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Samples {
		workers = opts.Samples
	}
	core, err := NewChip(sta.NewKernel(a), a.PL, &a.NL.Lib.Tech, model, pos, opts.Seed, opts.ClockPS, opts.Derate, nil)
	if err != nil {
		return nil, err
	}
	chips := []*Chip{core}
	for len(chips) < workers {
		chips = append(chips, core.Fork())
	}
	return &Runner{pos: pos, opts: opts, chips: chips}, nil
}

// Run runs the runner's samples with every cell under domains (nil =
// all VddLow), which must cover every cell; it honors ctx and recovers
// worker panics as the package-level Run does.
func (r *Runner) Run(ctx context.Context, domains []cell.Domain) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, chip := range r.chips {
		if err := chip.SetDomains(domains); err != nil {
			return nil, err
		}
	}
	pos, opts := r.pos, r.opts

	// The sample batch is the position's dominant cost: one span per
	// run, annotated with the batch shape and, on completion, how
	// many samples actually landed. Spans never touch artifact state.
	ctx, span := obs.Start(ctx, "mc.samples")
	defer span.End()
	span.SetAttr("pos", pos.Name)
	span.SetAttr("samples", opts.Samples)
	span.SetAttr("workers", len(r.chips))

	// Per-sample outcomes live in flat structure-of-arrays storage —
	// one slot per sample index, workers write disjoint slots — so the
	// fold below reads columns instead of per-sample maps. A stage's
	// presence (whether it has any constrained endpoint) is structural
	// and identical across samples, but each sample records its own
	// mask so a torn slot from a panicked sample is never read.
	outs := sampleBatch{
		done:         make([]bool, opts.Samples),
		panicked:     make([]*flowerr.PanicError, opts.Samples),
		crit:         make([]float64, opts.Samples),
		stagePresent: make([]uint8, opts.Samples),
	}
	for s := range outs.stageSlack {
		outs.stageSlack[s] = make([]float64, opts.Samples)
		outs.stageWorst[s] = make([]int32, opts.Samples)
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for _, chip := range r.chips {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame := &sta.Frame{}
			// sample is split out so a recovered panic discards one
			// chip instance, not the worker's whole queue.
			sample := func(k int) {
				defer func() {
					if r := recover(); r != nil {
						outs.panicked[k] = &flowerr.PanicError{
							Sample: k, Value: r, Stack: debug.Stack(),
						}
					}
				}()
				if opts.hookSample != nil {
					opts.hookSample(k)
				}
				chip.Sample(k)
				chip.Frame(frame)
				outs.crit[k] = frame.CritPS
				mask := uint8(0)
				for st := range frame.Lanes {
					if !frame.Present[st] {
						continue
					}
					mask |= 1 << st
					outs.stageSlack[st][k] = frame.Lanes[st].WorstSlack
					outs.stageWorst[st][k] = int32(frame.Lanes[st].Endpoint)
				}
				outs.stagePresent[k] = mask
				outs.done[k] = true
			}
			for k := range idx {
				if ctx.Err() != nil {
					continue // drain without computing
				}
				sample(k)
			}
		}()
	}
dispatch:
	for k := 0; k < opts.Samples; k++ {
		select {
		case idx <- k:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	var firstPanic *flowerr.PanicError
	var skipped []int
	completed := 0
	for k := 0; k < opts.Samples; k++ {
		switch {
		case outs.done[k]:
			completed++
		case outs.panicked[k] != nil:
			if firstPanic == nil {
				firstPanic = outs.panicked[k]
			}
			skipped = append(skipped, k)
		}
	}
	span.SetAttr("completed", completed)
	span.SetAttr("skipped", len(skipped))
	if len(skipped) > opts.PanicTolerance {
		return nil, flowerr.Classify(flowerr.ErrWorkerPanic, fmt.Errorf(
			"mc: %d of %d samples panicked (tolerance %d): %w",
			len(skipped), opts.Samples, opts.PanicTolerance, firstPanic))
	}
	if completed < 2 && ctx.Err() == nil {
		return nil, flowerr.Classify(flowerr.ErrWorkerPanic, fmt.Errorf(
			"mc: only %d of %d samples usable after skips: %w",
			completed, opts.Samples, firstPanic))
	}

	res := &Result{
		Pos:            pos,
		ClockPS:        opts.ClockPS,
		Samples:        completed,
		Requested:      opts.Samples,
		Skipped:        skipped,
		PerStage:       make(map[netlist.Stage]*StageDist),
		CritPS:         make([]float64, 0, completed),
		StageCriticals: make(map[netlist.Stage]map[int]int),
	}
	for k := 0; k < opts.Samples; k++ {
		if !outs.done[k] {
			continue
		}
		res.CritPS = append(res.CritPS, outs.crit[k])
		mask := outs.stagePresent[k]
		for s := 0; s < int(netlist.NumStages); s++ {
			if mask&(1<<s) == 0 {
				continue
			}
			st := netlist.Stage(s)
			d := res.PerStage[st]
			if d == nil {
				d = &StageDist{Stage: st}
				res.PerStage[st] = d
			}
			d.SlackPS = append(d.SlackPS, outs.stageSlack[s][k])
			m := res.StageCriticals[st]
			if m == nil {
				m = make(map[int]int)
				res.StageCriticals[st] = m
			}
			m[int(outs.stageWorst[s][k])]++
		}
	}
	for _, d := range res.PerStage {
		d.finalize(completed)
	}
	if err := ctx.Err(); err != nil {
		if completed == 0 {
			res = nil
		}
		return res, flowerr.Classify(flowerr.ErrCancelled, fmt.Errorf(
			"mc: position %s cancelled after %d/%d samples: %w",
			pos.Name, completed, opts.Samples, err))
	}
	return res, nil
}

// finalize fits the distribution (paper: chi-square goodness-of-fit at
// a 95% confidence level) and computes violation statistics.
func (d *StageDist) finalize(samples int) {
	viol := 0
	for _, s := range d.SlackPS {
		if s < 0 {
			viol++
		}
	}
	d.ViolFrac = float64(viol) / float64(samples)
	fit, err := stats.FitNormal(d.SlackPS)
	if err != nil {
		d.FitErr = err.Error()
		return
	}
	d.Fit = fit
	if fit.Sigma > 0 {
		d.ViolProb = fit.CDF(0)
	} else if fit.Mu < 0 {
		d.ViolProb = 1
	}
	if gof, err := stats.ChiSquareNormalTest(d.SlackPS, fit, 0.05); err == nil {
		d.GOF = gof
	}
	if ks, err := stats.KolmogorovSmirnovTest(d.SlackPS, fit, 0.05); err == nil {
		d.KS = ks
	}
}

// PipelineStages are the stages considered for scenario
// classification; the paper excludes fetch ("the lack of memory
// implementation does not allow useful insights into the fetch
// stage").
var PipelineStages = []netlist.Stage{
	netlist.StageDecode, netlist.StageExecute, netlist.StageWriteback,
}

// Scenario is a timing-violation scenario: the number of analyzed
// pipeline stages whose slack distribution violates the nominal
// slack-met condition (paper Section 4.4: 3 scenarios plus the
// all-met case).
type Scenario int

// Classify returns the scenario and the violating stages, ordered by
// severity (most violating first).
func (r *Result) Classify(alpha float64) (Scenario, []netlist.Stage) {
	if alpha <= 0 {
		alpha = 1e-3
	}
	var stages []netlist.Stage
	for _, st := range PipelineStages {
		if d := r.PerStage[st]; d != nil && d.Violates(alpha) {
			stages = append(stages, st)
		}
	}
	// Order by mean slack, most negative first (violation
	// probability saturates at 1 for severe scenarios and cannot
	// discriminate).
	for i := 1; i < len(stages); i++ {
		for j := i; j > 0 && r.PerStage[stages[j]].Fit.Mu < r.PerStage[stages[j-1]].Fit.Mu; j-- {
			stages[j], stages[j-1] = stages[j-1], stages[j]
		}
	}
	return Scenario(len(stages)), stages
}

// CriticalEndpoints returns the endpoints that were the stage's
// critical path in at least one sampled chip, most frequent first: the
// flip-flops that need Razor sensing (paper: "12 signal paths becoming
// critical ... with a probability roughly proportional to their
// positive slack under nominal conditions").
func (r *Result) CriticalEndpoints(nl *netlist.Netlist, stage netlist.Stage) []EndpointRisk {
	var out []EndpointRisk
	for inst, count := range r.StageCriticals[stage] {
		if inst == netlist.NoInst || nl.Insts[inst].Stage != stage {
			continue
		}
		out = append(out, EndpointRisk{
			Inst:     inst,
			ViolFrac: float64(count) / float64(r.Samples),
		})
	}
	sort.Slice(out, func(i, j int) bool { return less(out[j], out[i]) })
	return out
}

func less(a, b EndpointRisk) bool {
	if a.ViolFrac != b.ViolFrac {
		return a.ViolFrac < b.ViolFrac
	}
	return a.Inst > b.Inst
}

// EndpointRisk is one statistically-critical endpoint.
type EndpointRisk struct {
	Inst     int
	ViolFrac float64 // fraction of chips in which it violates
}

// Yield returns the parametric yield at the given clock period: the
// fraction of sampled chips whose critical path meets it. Evaluating
// it over a period sweep gives the classic SSTA yield-vs-frequency
// curve the statistical-design literature optimizes against (the
// paper's Section 2 survey).
func (r *Result) Yield(clockPS float64) float64 {
	if len(r.CritPS) == 0 {
		return 0
	}
	met := 0
	for _, c := range r.CritPS {
		if c <= clockPS {
			met++
		}
	}
	return float64(met) / float64(len(r.CritPS))
}

// YieldCurve evaluates Yield over n equally spaced clock periods
// between loPS and hiPS, returning parallel period and yield slices.
// Inverted bounds swap; a degenerate request (n <= 1 or loPS == hiPS)
// returns the single point at loPS rather than dividing the empty
// interval.
func (r *Result) YieldCurve(loPS, hiPS float64, n int) (periods, yields []float64) {
	if loPS > hiPS {
		loPS, hiPS = hiPS, loPS
	}
	if n <= 1 || loPS == hiPS {
		return []float64{loPS}, []float64{r.Yield(loPS)}
	}
	periods = make([]float64, n)
	yields = make([]float64, n)
	for i := 0; i < n; i++ {
		p := loPS + (hiPS-loPS)*float64(i)/float64(n-1)
		periods[i] = p
		yields[i] = r.Yield(p)
	}
	return periods, yields
}
