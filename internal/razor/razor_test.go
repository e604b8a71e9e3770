package razor

import (
	"context"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/stats"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

type fixture struct {
	core   *vex.Core
	pl     *place.Placement
	a      *sta.Analyzer
	model  variation.Model
	derate []float64
	clock  float64
	resA   *mc.Result
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		t.Fatal(err)
	}
	clock := a.Run(1e9, nil).CritPS * 1.001
	derate, err := a.SlackRecoveryCtx(context.Background(), clock, sta.DefaultRecoveryTargets(), 12, 25)
	if err != nil {
		t.Fatal(err)
	}
	model := variation.Default()
	resA, err := mc.Run(context.Background(), a, &model, model.DiagonalPositions()[0], mc.Options{
		Samples: 200, Seed: 4, ClockPS: clock, Derate: derate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{core: core, pl: pl, a: a, model: model, derate: derate, clock: clock, resA: resA}
}

func TestPlanCoversAllAnalyzedStages(t *testing.T) {
	f := newFixture(t)
	p := NewPlan(f.core.NL, f.resA, DefaultBudget)
	if p.NumSensors() == 0 {
		t.Fatal("no sensors planned at point A")
	}
	for _, st := range mc.PipelineStages {
		if len(p.ByStage[st]) == 0 {
			t.Errorf("no sensors in %v although it violates at A", st)
		}
	}
	// Sensor economy: far fewer sensors than flops (the paper found
	// only 12 candidate paths in the execute stage).
	flops := len(f.core.NL.Sequentials())
	if p.NumSensors() > flops/3 {
		t.Errorf("%d sensors for %d flops — no economy", p.NumSensors(), flops)
	}
}

func TestPlanAreaOverhead(t *testing.T) {
	f := newFixture(t)
	p := NewPlan(f.core.NL, f.resA, DefaultBudget)
	over := p.AreaOverheadUM2(f.core.NL.Lib)
	if over <= 0 {
		t.Fatal("no overhead computed")
	}
	total := f.core.NL.Stats().AreaUM2
	if over > total*0.10 {
		t.Errorf("sensor area overhead %.0f is %.1f%% of design — too costly", over, 100*over/total)
	}
}

func TestDetectMatchesGroundTruth(t *testing.T) {
	f := newFixture(t)
	plan := NewPlan(f.core.NL, f.resA, DefaultBudget)
	tech := &f.core.NL.Lib.Tech

	// Evaluate detection accuracy over fresh chips at each position.
	for _, pos := range f.model.DiagonalPositions() {
		match, total := 0, 40
		for k := 0; k < total; k++ {
			rng := stats.DeriveStream(77, pos.Name+string(rune(k)))
			lg := f.model.SampleChip(f.pl, pos, rng)
			scale := make([]float64, f.core.NL.NumCells())
			for i := range scale {
				scale[i] = tech.DelayScale(tech.VddLow, lg[i]) * f.derate[i]
			}
			det := Detect(f.a, plan, f.clock, scale)
			truth := GroundTruth(f.a.Run(f.clock, scale))
			if det.Equal(truth) {
				match++
			}
		}
		acc := float64(match) / float64(total)
		// The paper claims "a high level of correctness".
		if acc < 0.85 {
			t.Errorf("position %s: detection accuracy %.2f too low", pos.Name, acc)
		}
	}
}

func TestDetectionScenarioOrdering(t *testing.T) {
	// Across the diagonal, the average detected scenario must be
	// non-increasing from A to D.
	f := newFixture(t)
	plan := NewPlan(f.core.NL, f.resA, DefaultBudget)
	tech := &f.core.NL.Lib.Tech
	prev := 4.0
	for _, pos := range f.model.DiagonalPositions() {
		sum := 0
		const n = 30
		for k := 0; k < n; k++ {
			rng := stats.DeriveStream(99, pos.Name+string(rune(k)))
			lg := f.model.SampleChip(f.pl, pos, rng)
			scale := make([]float64, f.core.NL.NumCells())
			for i := range scale {
				scale[i] = tech.DelayScale(tech.VddLow, lg[i]) * f.derate[i]
			}
			sum += Detect(f.a, plan, f.clock, scale).Scenario
		}
		avg := float64(sum) / n
		if avg > prev+0.2 {
			t.Errorf("average scenario grew along diagonal at %s: %.2f after %.2f", pos.Name, avg, prev)
		}
		prev = avg
	}
}

func TestDetectionEqual(t *testing.T) {
	a := Detection{Scenario: 1, Flagged: map[netlist.Stage]bool{netlist.StageExecute: true}}
	b := Detection{Scenario: 1, Flagged: map[netlist.Stage]bool{netlist.StageExecute: true}}
	c := Detection{Scenario: 1, Flagged: map[netlist.Stage]bool{netlist.StageDecode: true}}
	d := Detection{Scenario: 0, Flagged: map[netlist.Stage]bool{}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal broken")
	}
}

func TestDetectWindow(t *testing.T) {
	f := newFixture(t)
	plan := NewPlan(f.core.NL, f.resA, DefaultBudget)
	tech := &f.core.NL.Lib.Tech
	// A chip at point A violates by ~10% of the clock; a window of one
	// clock period catches it, a tiny window misses everything.
	rng := stats.DeriveStream(55, "window-chip")
	lg := f.model.SampleChip(f.pl, f.model.DiagonalPositions()[0], rng)
	scale := make([]float64, f.core.NL.NumCells())
	for i := range scale {
		scale[i] = tech.DelayScale(tech.VddLow, lg[i]) * f.derate[i]
	}
	window := f.clock
	tuned := DetectWindow(f.a, plan, f.clock, window, scale)
	unbounded := Detect(f.a, plan, f.clock, scale)
	if !tuned.Equal(unbounded) {
		t.Errorf("window (%.0f ps) misses violations the unbounded one sees: %v vs %v",
			window, tuned.Flagged, unbounded.Flagged)
	}
	tiny := DetectWindow(f.a, plan, f.clock, 1, scale)
	if tiny.Scenario >= unbounded.Scenario && unbounded.Scenario > 0 {
		t.Errorf("1ps window should miss deep violations: detected %d vs %d", tiny.Scenario, unbounded.Scenario)
	}
}
