package mc

import (
	"context"
	"errors"
	"maps"
	"math"
	"sync/atomic"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

type fixture struct {
	a      *sta.Analyzer
	model  variation.Model
	derate []float64
	clock  float64
}

// coreFixture builds the small VEX core, places it, and applies slack
// recovery so the stage wall resembles the paper's Fig. 3 setup.
func coreFixture(t testing.TB) *fixture {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sta.New(core.NL, p)
	if err != nil {
		t.Fatal(err)
	}
	clock := a.Run(1e9, nil).CritPS * 1.001
	derate, err := a.SlackRecoveryCtx(context.Background(), clock, sta.DefaultRecoveryTargets(), 12, 25)
	if err != nil {
		t.Fatal(err)
	}
	m := variation.Default()
	return &fixture{a: a, model: m, derate: derate, clock: clock}
}

func (f *fixture) run(t *testing.T, pos variation.Pos, samples int) *Result {
	t.Helper()
	res, err := Run(context.Background(), f.a, &f.model, pos, Options{
		Samples: samples, Seed: 11, ClockPS: f.clock, Derate: f.derate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	f := coreFixture(t)
	if _, err := Run(context.Background(), f.a, &f.model, variation.Pos{}, Options{Samples: 1, ClockPS: 100}); err == nil {
		t.Error("1 sample accepted")
	}
	if _, err := Run(context.Background(), f.a, &f.model, variation.Pos{}, Options{Samples: 10, ClockPS: 0}); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := Run(context.Background(), f.a, &f.model, variation.Pos{}, Options{Samples: 10, ClockPS: 100, Derate: []float64{1}}); err == nil {
		t.Error("bad derate length accepted")
	}
}

func TestPointAAllStagesViolate(t *testing.T) {
	f := coreFixture(t)
	pos := f.model.DiagonalPositions()[0] // A
	res := f.run(t, pos, 200)
	sc, stages := res.Classify(1e-3)
	if sc != 3 {
		t.Fatalf("scenario at A = %d (%v), want 3", sc, stages)
	}
	// Fig. 3: the execute stage is the most severe violator.
	if stages[0] != netlist.StageExecute {
		t.Errorf("most severe stage = %v, want EXECUTE", stages[0])
	}
	// All three mean slacks negative, EX worst.
	ex := res.PerStage[netlist.StageExecute]
	dc := res.PerStage[netlist.StageDecode]
	wb := res.PerStage[netlist.StageWriteback]
	if ex.Fit.Mu >= 0 || dc.Fit.Mu >= 0 || wb.Fit.Mu >= 0 {
		t.Errorf("mean slacks at A should all be negative: ex=%.0f dc=%.0f wb=%.0f", ex.Fit.Mu, dc.Fit.Mu, wb.Fit.Mu)
	}
	if !(ex.Fit.Mu < dc.Fit.Mu && dc.Fit.Mu < wb.Fit.Mu) {
		t.Errorf("stage severity ordering wrong: ex=%.0f dc=%.0f wb=%.0f", ex.Fit.Mu, dc.Fit.Mu, wb.Fit.Mu)
	}
}

func TestPointDMeetsTiming(t *testing.T) {
	f := coreFixture(t)
	pos := f.model.DiagonalPositions()[3] // D
	res := f.run(t, pos, 200)
	sc, stages := res.Classify(1e-3)
	if sc != 0 {
		t.Fatalf("scenario at D = %d (%v), want 0", sc, stages)
	}
}

func TestScenarioSeverityDecreasesAlongDiagonal(t *testing.T) {
	f := coreFixture(t)
	prev := Scenario(4)
	for _, pos := range f.model.DiagonalPositions() {
		res := f.run(t, pos, 150)
		sc, _ := res.Classify(1e-3)
		if sc > prev {
			t.Errorf("scenario increased at %s: %d after %d", pos.Name, sc, prev)
		}
		prev = sc
	}
}

func TestDistributionsFitNormal(t *testing.T) {
	f := coreFixture(t)
	res := f.run(t, f.model.DiagonalPositions()[0], 400)
	for _, st := range PipelineStages {
		d := res.PerStage[st]
		if d == nil {
			t.Fatalf("no distribution for %v", st)
		}
		if d.FitErr != nil {
			t.Fatalf("fit failed for %v: %v", st, d.FitErr)
		}
		if d.Fit.Sigma <= 0 {
			t.Errorf("%v: sigma = %g", st, d.Fit.Sigma)
		}
		// The paper fits all stage distributions to normals at 95%
		// confidence; ours should at least not be wildly non-normal.
		if d.GOF.Bins > 0 && d.GOF.PValue < 1e-6 {
			t.Errorf("%v: distribution wildly non-normal (p=%g)", st, d.GOF.PValue)
		}
	}
}

func TestDepthAveragesOutRandomVariation(t *testing.T) {
	// Paper Section 4.3: "since path delays are determined by taking
	// an aggregate sum of each gate's delay in the path, the path's
	// ratio of variance to mean will decrease as the logic depth
	// increases". Verify the mechanism directly: a shallow chain's
	// delay distribution has a larger coefficient of variation than
	// a deep chain's.
	b := netlist.NewBuilder("depths", cell.Default65nm())
	d := b.NL.AddPI("d")
	q := b.DFF(d)
	shallow, deep := q, q
	for i := 0; i < 6; i++ {
		shallow = b.Not(shallow)
	}
	for i := 0; i < 60; i++ {
		deep = b.Not(deep)
	}
	r := b.Scope(netlist.StageDecode, "shallow")
	b.DFF(shallow)
	r()
	r = b.Scope(netlist.StageExecute, "deep")
	b.DFF(deep)
	r()
	p, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sta.New(b.NL, p)
	if err != nil {
		t.Fatal(err)
	}
	m := variation.Default()
	res, err := Run(context.Background(), a, &m, m.DiagonalPositions()[0], Options{Samples: 300, Seed: 2, ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cv := func(st netlist.Stage) float64 {
		dd := res.PerStage[st]
		meanDelay := res.ClockPS - dd.Fit.Mu
		return dd.Fit.Sigma / meanDelay
	}
	cvShallow, cvDeep := cv(netlist.StageDecode), cv(netlist.StageExecute)
	if cvDeep >= cvShallow {
		t.Errorf("cv(deep)=%.4f should be < cv(shallow)=%.4f", cvDeep, cvShallow)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	f := coreFixture(t)
	pos := f.model.DiagonalPositions()[1]
	r1, err := Run(context.Background(), f.a, &f.model, pos, Options{Samples: 40, Seed: 5, ClockPS: f.clock, Derate: f.derate, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(context.Background(), f.a, &f.model, pos, Options{Samples: 40, Seed: 5, ClockPS: f.clock, Derate: f.derate, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.CritPS {
		if r1.CritPS[i] != r8.CritPS[i] {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}

// TestRunnerMatchesRun runs one runner's sample cores under half-die
// high-Vdd domains, then all low, then the half-die domains again:
// each result equals a fresh Run with those domains bit for bit, so
// nothing of one run's chips leaks into the next. A domains vector of
// the wrong length fails before any sample runs.
func TestRunnerMatchesRun(t *testing.T) {
	f := coreFixture(t)
	pos := f.model.DiagonalPositions()[0]
	half := make([]cell.Domain, f.a.NL.NumCells())
	for i := range half {
		if x, _ := f.a.PL.Center(i); x < f.a.PL.DieW/2 {
			half[i] = cell.DomainHigh
		}
	}
	var sampled atomic.Int32
	opts := Options{Samples: 30, Seed: 5, ClockPS: f.clock, Derate: f.derate, Workers: 2,
		hookSample: func(int) { sampled.Add(1) }}
	r, err := NewRunner(f.a, &f.model, pos, opts)
	if err != nil {
		t.Fatal(err)
	}
	var crit []float64
	for i, domains := range [][]cell.Domain{half, nil, half} {
		got, err := r.Run(context.Background(), domains)
		if err != nil {
			t.Fatal(err)
		}
		opts.Domains = domains
		want, err := Run(context.Background(), f.a, &f.model, pos, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, i, got, want)
		crit = append(crit, got.CritPS[0])
	}
	if crit[0] == crit[1] {
		t.Error("half-die high Vdd left the first chip's critical path unchanged")
	}

	sampled.Store(0)
	if _, err := r.Run(context.Background(), half[1:]); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("short domains: err = %v, want ErrBadInput", err)
	}
	if n := sampled.Load(); n != 0 {
		t.Errorf("short domains: %d samples ran before the error", n)
	}
}

// sameResult fails t unless two results hold the same bits in every
// distribution the island search and the sensor plan read.
func sameResult(t *testing.T, run int, got, want *Result) {
	t.Helper()
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.CritPS, want.CritPS) {
		t.Errorf("run %d: CritPS differs", run)
	}
	if len(got.PerStage) != len(want.PerStage) {
		t.Errorf("run %d: %d stages, want %d", run, len(got.PerStage), len(want.PerStage))
	}
	for st, w := range want.PerStage {
		g := got.PerStage[st]
		if g == nil || !same(g.SlackPS, w.SlackPS) || !same([]float64{g.Fit.Mu, g.Fit.Sigma}, []float64{w.Fit.Mu, w.Fit.Sigma}) {
			t.Errorf("run %d: stage %v distribution differs", run, st)
		}
		if !maps.Equal(got.StageCriticals[st], want.StageCriticals[st]) {
			t.Errorf("run %d: stage %v criticals differ", run, st)
		}
	}
	if !maps.Equal(got.EndpointViolations, want.EndpointViolations) {
		t.Errorf("run %d: endpoint violations differ", run)
	}
	if len(got.EndpointViolations) == 0 {
		t.Errorf("run %d: no endpoint violated, the violation counts went unchecked", run)
	}
}

func TestCriticalEndpointsSubsetAndOrdered(t *testing.T) {
	f := coreFixture(t)
	res := f.run(t, f.model.DiagonalPositions()[0], 200)
	eps := res.CriticalEndpoints(f.a.NL, netlist.StageExecute)
	if len(eps) == 0 {
		t.Fatal("no critical endpoints in EX at point A")
	}
	total := 0
	for _, d := range res.PerStage {
		total += len(d.SlackPS)
	}
	// Razor economy: only a small subset of EX endpoints can become
	// critical (paper found 12 of all EX flops).
	exEndpoints := 0
	for i := range f.a.NL.Insts {
		if f.a.NL.IsSequential(i) && f.a.NL.Insts[i].Stage == netlist.StageExecute {
			exEndpoints++
		}
	}
	if len(eps) >= exEndpoints/2 {
		t.Errorf("%d of %d EX endpoints critical — sensor placement buys nothing", len(eps), exEndpoints)
	}
	for i := 1; i < len(eps); i++ {
		if eps[i].ViolFrac > eps[i-1].ViolFrac {
			t.Error("endpoints not sorted by violation frequency")
		}
	}
	for _, ep := range eps {
		if f.a.NL.Insts[ep.Inst].Stage != netlist.StageExecute {
			t.Error("wrong-stage endpoint reported")
		}
	}
}

func TestCritPSDistributionSane(t *testing.T) {
	f := coreFixture(t)
	res := f.run(t, f.model.DiagonalPositions()[0], 100)
	for _, c := range res.CritPS {
		if c < f.clock*0.8 || c > f.clock*1.3 {
			t.Fatalf("critical path %g implausible for clock %g", c, f.clock)
		}
	}
	// Paper: worst-case clock frequency degraded by ~10% at A. Ours
	// should be in the same ballpark (systematic 5.5% + random).
	worst := res.CritPS[0]
	for _, c := range res.CritPS {
		worst = math.Max(worst, c)
	}
	degr := worst/f.clock - 1
	if degr < 0.03 || degr > 0.20 {
		t.Errorf("worst-case degradation %.1f%% out of plausible range", degr*100)
	}
}

func TestYieldMonotoneAndBounded(t *testing.T) {
	f := coreFixture(t)
	res := f.run(t, f.model.DiagonalPositions()[1], 100)
	if y := res.Yield(0); y != 0 {
		t.Errorf("yield at zero period = %g", y)
	}
	if y := res.Yield(1e12); y != 1 {
		t.Errorf("yield at huge period = %g", y)
	}
	periods, yields := res.YieldCurve(f.clock*0.9, f.clock*1.2, 16)
	if len(periods) != 16 || len(yields) != 16 {
		t.Fatal("curve shape wrong")
	}
	for i := 1; i < len(yields); i++ {
		if yields[i] < yields[i-1] {
			t.Fatalf("yield curve not monotone at %d: %v", i, yields)
		}
	}
}

func TestYieldOrderedByPosition(t *testing.T) {
	// At the same clock, yield improves from A to D.
	f := coreFixture(t)
	prev := -1.0
	for _, pos := range f.model.DiagonalPositions() {
		res := f.run(t, pos, 100)
		y := res.Yield(f.clock)
		if y < prev {
			t.Errorf("yield at %s (%.2f) below previous (%.2f)", pos.Name, y, prev)
		}
		prev = y
	}
}

func TestKSFieldPopulated(t *testing.T) {
	f := coreFixture(t)
	res := f.run(t, f.model.DiagonalPositions()[2], 120)
	for _, st := range PipelineStages {
		d := res.PerStage[st]
		if d.KS.DOF == 0 {
			t.Errorf("%v: KS test not run", st)
		}
		if d.KS.PValue < 0 || d.KS.PValue > 1 {
			t.Errorf("%v: KS p-value %g out of range", st, d.KS.PValue)
		}
	}
}

func TestRunPreCancelled(t *testing.T) {
	f := coreFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, f.a, &f.model, f.model.DiagonalPositions()[0], Options{
		Samples: 40, Seed: 1, ClockPS: f.clock, Derate: f.derate,
	})
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res != nil {
		t.Errorf("pre-cancelled run returned %d samples, want nil result", res.Samples)
	}
}

func TestRunCancelledMidRunReturnsPartial(t *testing.T) {
	f := coreFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int32
	res, err := Run(ctx, f.a, &f.model, f.model.DiagonalPositions()[0], Options{
		Samples: 40, Seed: 1, ClockPS: f.clock, Derate: f.derate, Workers: 2,
		hookSample: func(int) {
			if fired.Add(1) == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("mid-run cancellation lost the partial result")
	}
	if res.Samples == 0 || res.Samples >= res.Requested {
		t.Errorf("partial result has %d/%d samples", res.Samples, res.Requested)
	}
	if len(res.CritPS) != res.Samples {
		t.Errorf("CritPS has %d entries for %d samples", len(res.CritPS), res.Samples)
	}
	for _, d := range res.PerStage {
		if len(d.SlackPS) != res.Samples {
			t.Errorf("stage %v has %d slacks for %d samples", d.Stage, len(d.SlackPS), res.Samples)
		}
	}
}

func TestRunWorkerPanicBeyondTolerance(t *testing.T) {
	f := coreFixture(t)
	res, err := Run(context.Background(), f.a, &f.model, f.model.DiagonalPositions()[1], Options{
		Samples: 20, Seed: 1, ClockPS: f.clock, Derate: f.derate, Workers: 2,
		hookSample: func(k int) {
			if k == 3 {
				panic("injected fault")
			}
		},
	})
	if res != nil {
		t.Error("panicked run beyond tolerance returned a result")
	}
	if !errors.Is(err, flowerr.ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	var pe *flowerr.PanicError
	if !errors.As(err, &pe) {
		t.Fatal("no PanicError in chain")
	}
	if pe.Sample != 3 {
		t.Errorf("panic sample = %d, want 3", pe.Sample)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestRunWorkerPanicWithinToleranceSkips(t *testing.T) {
	f := coreFixture(t)
	res, err := Run(context.Background(), f.a, &f.model, f.model.DiagonalPositions()[1], Options{
		Samples: 20, Seed: 1, ClockPS: f.clock, Derate: f.derate, Workers: 2,
		PanicTolerance: 2,
		hookSample: func(k int) {
			if k == 3 || k == 7 {
				panic("injected fault")
			}
		},
	})
	if err != nil {
		t.Fatalf("tolerated panics still errored: %v", err)
	}
	if res.Samples != 18 || res.Requested != 20 {
		t.Errorf("samples = %d/%d, want 18/20", res.Samples, res.Requested)
	}
	if len(res.Skipped) != 2 || res.Skipped[0] != 3 || res.Skipped[1] != 7 {
		t.Errorf("skipped = %v, want [3 7]", res.Skipped)
	}
	if len(res.CritPS) != 18 {
		t.Errorf("CritPS has %d entries", len(res.CritPS))
	}
	for _, d := range res.PerStage {
		if d.FitErr != nil {
			t.Errorf("stage %v fit failed on skip-degraded run: %v", d.Stage, d.FitErr)
		}
	}
}

// TestYieldCurveEdgeCases pins the degenerate-request contract the
// yield-surface axis (yield.CurveAxis.Normalize) mirrors: inverted
// bounds swap, and a single-point or empty axis collapses to one
// sample at the low edge instead of dividing the empty interval.
func TestYieldCurveEdgeCases(t *testing.T) {
	r := &Result{CritPS: []float64{3900, 4000, 4100, 4300}}

	for _, n := range []int{-3, 0, 1} {
		p, y := r.YieldCurve(4000, 4200, n)
		if len(p) != 1 || len(y) != 1 || p[0] != 4000 || y[0] != 0.5 {
			t.Fatalf("n=%d: curve = %v/%v; want single point (4000, 0.5)", n, p, y)
		}
	}

	// Equal bounds: one point regardless of the requested count.
	p, y := r.YieldCurve(4100, 4100, 16)
	if len(p) != 1 || p[0] != 4100 || y[0] != 0.75 {
		t.Fatalf("degenerate interval: curve = %v/%v; want (4100, 0.75)", p, y)
	}

	// Inverted bounds swap; the curve still runs low to high.
	p, y = r.YieldCurve(4200, 3800, 5)
	if len(p) != 5 || p[0] != 3800 || p[4] != 4200 {
		t.Fatalf("swapped bounds: periods = %v; want 3800..4200", p)
	}
	for i := 1; i < len(y); i++ {
		if y[i] < y[i-1] {
			t.Fatalf("yield curve not monotonic: %v", y)
		}
	}
	if y[4] != 0.75 {
		t.Fatalf("yield at 4200 = %g; want 0.75", y[4])
	}
}

// BenchmarkRun is the per-sample cost of mc.Run on one worker: chip
// draw, brackets, Bound and Frame's refine, with the fold amortized.
func BenchmarkRun(b *testing.B) {
	f := coreFixture(b)
	pos := f.model.DiagonalPositions()[1]
	b.ResetTimer()
	if _, err := Run(context.Background(), f.a, &f.model, pos, Options{
		Samples: max(b.N, 2), Seed: 11, ClockPS: f.clock, Derate: f.derate, Workers: 1,
	}); err != nil {
		b.Fatal(err)
	}
}
