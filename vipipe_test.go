package vipipe

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/pipeline"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
)

// TestFlowAutoResolvesPrerequisites: with the artifact graph under
// the facade, calling a step on a fresh flow computes its whole
// dependency closure instead of failing with a step-order error.
func TestFlowAutoResolvesPrerequisites(t *testing.T) {
	ctx := context.Background()
	f := New(TestConfig())
	// Place on a fresh flow synthesizes implicitly.
	if err := f.Place(ctx); err != nil {
		t.Fatal(err)
	}
	if f.NL == nil || f.PL == nil {
		t.Fatal("Place did not materialize the synthesis closure")
	}
	// GenerateIslands pulls analysis and the full characterization.
	part, err := f.GenerateIslands(ctx, vi.Horizontal)
	if err != nil {
		t.Fatal(err)
	}
	if part == nil || part.NumIslands() == 0 {
		t.Fatal("no islands generated")
	}
	if len(f.MC) != 4 || len(f.ScenarioPositions) == 0 || f.STA == nil {
		t.Errorf("closure not mirrored: %d characterizations, %d scenarios",
			len(f.MC), len(f.ScenarioPositions))
	}
}

// TestFlowGuardsNamePrerequisite: the step-order guards that remain
// (no-context accessors that cannot trigger graph work) must name the
// required prior step in their error text.
func TestFlowGuardsNamePrerequisite(t *testing.T) {
	f := New(TestConfig())
	guards := []struct {
		name string
		want string // prerequisite named in the error
		call func() error
	}{
		{"SensorPlan", "Characterize", func() error { _, err := f.SensorPlan(); return err }},
		{"Check", "Synthesize", func() error { return f.Check(nil) }},
		{"ChipWidePower", "Synthesize", func() error {
			_, err := f.ChipWidePower(variation.Pos{Name: "A"})
			return err
		}},
	}
	for _, g := range guards {
		err := g.call()
		if err == nil {
			t.Errorf("%s on empty flow accepted", g.name)
			continue
		}
		if !errors.Is(err, flowerr.ErrStepOrder) {
			t.Errorf("%s: error %v does not match ErrStepOrder", g.name, err)
		}
		if !strings.Contains(err.Error(), g.want) {
			t.Errorf("%s: error %q does not name prerequisite %q", g.name, err, g.want)
		}
	}
}

// TestPowerBeforeWorkloadRejected covers the one ordering guard that
// needs a characterized flow first.
func TestPowerBeforeWorkloadRejected(t *testing.T) {
	f := New(TestConfig())
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	pos, err := f.Position("A")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Power(make([]cell.Domain, f.NL.NumCells()), pos)
	if err == nil {
		t.Fatal("Power before SimulateWorkload accepted")
	}
	if !errors.Is(err, flowerr.ErrStepOrder) {
		t.Errorf("error %v does not match ErrStepOrder", err)
	}
}

func TestFlowPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := New(TestConfig())
	err := f.Run(ctx)
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Errorf("error %v does not match ErrCancelled", err)
	}
}

// TestCharacterizeCancelledMidRun cancels after the first position's
// Monte Carlo run commits and checks both the error class and the
// partial-progress contract: positions characterized before the
// cancellation stay in f.MC. The graph is rebuilt with one worker so
// the cancellation point is deterministic.
func TestCharacterizeCancelledMidRun(t *testing.T) {
	f := New(TestConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.graph = newGraph(f.Cfg, f.Lib, pipeline.NewMemStore(),
		pipeline.WithWorkers(1),
		pipeline.WithHook(func(id string, _ any, cached bool, _ time.Duration) {
			if !cached && strings.HasPrefix(id, "mc/") {
				cancel() // first characterization done: stop the rest
			}
		}))
	err := f.Characterize(ctx)
	if err == nil {
		t.Fatal("cancelled Characterize succeeded")
	}
	if !errors.Is(err, flowerr.ErrCancelled) {
		t.Fatalf("error %v does not match ErrCancelled", err)
	}
	if len(f.MC) == 0 || len(f.MC) >= 4 {
		t.Errorf("partial progress: %d characterizations adopted, want 1..3", len(f.MC))
	}
	for name, res := range f.MC {
		if res.Samples != res.Requested {
			t.Errorf("committed position %s: %d of %d samples", name, res.Samples, res.Requested)
		}
	}
	if len(f.ScenarioPositions) != 0 {
		t.Error("scenario ladder derived despite cancellation")
	}
}

// TestFlowRefusesGraphAfterMutation: InsertShifters invalidates the
// graph's artifacts, so later graph-backed steps must fail with a
// step-order error pointing at the rebuild.
func TestFlowRefusesGraphAfterMutation(t *testing.T) {
	ctx := context.Background()
	f := New(TestConfig())
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.InsertShifters(ctx, part); err != nil {
		t.Fatal(err)
	}
	err = f.Characterize(ctx)
	if !errors.Is(err, flowerr.ErrStepOrder) {
		t.Fatalf("Characterize after mutation: %v, want ErrStepOrder", err)
	}
	if !strings.Contains(err.Error(), "New") {
		t.Errorf("error %q does not point at rebuilding from New", err)
	}
	// The imperative post-mutation path still works end to end.
	if err := f.SimulateWorkload(ctx); err != nil {
		t.Fatal(err)
	}
	pos, err := f.Position("C")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.ScenarioPower(part, 1, pos)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMW() <= 0 {
		t.Error("no power reported on the mutated design")
	}
}

func TestFlowEndToEnd(t *testing.T) {
	ctx := context.Background()
	f := New(TestConfig())
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if f.FmaxMHz <= 0 || f.ClockPS <= 0 {
		t.Fatal("no clock derived")
	}
	// Canonical scenario ladder: three scenarios, targets C, B, A.
	if len(f.ScenarioPositions) != 3 {
		t.Fatalf("scenario positions = %v", f.ScenarioPositions)
	}
	names := []string{}
	for _, p := range f.ScenarioPositions {
		names = append(names, p.Name)
	}
	if names[0] != "C" || names[1] != "B" || names[2] != "A" {
		t.Errorf("scenario targets = %v, want [C B A]", names)
	}
	// Every completed position reports full sample counts.
	for name, res := range f.MC {
		if res.Samples != res.Requested {
			t.Errorf("position %s: %d of %d samples", name, res.Samples, res.Requested)
		}
	}

	// The characterized flow passes DRC.
	if err := f.Check(nil); err != nil {
		t.Fatalf("pre-island DRC: %v", err)
	}

	// Workload + baseline power before mutation.
	if err := f.SimulateWorkload(ctx); err != nil {
		t.Fatal(err)
	}
	posA, err := f.Position("A")
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.ChipWidePower(posA)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalMW() <= 0 {
		t.Fatal("no baseline power")
	}

	// Islands, shifters, scenario power.
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		t.Fatal(err)
	}
	count, degr, err := f.InsertShifters(ctx, part)
	if err != nil {
		t.Fatal(err)
	}
	if count <= 0 {
		t.Fatal("no shifters")
	}
	if degr < 0 || degr > 0.6 {
		t.Errorf("degradation %.2f implausible", degr)
	}
	// The mutated flow still passes DRC, including the level-shifter
	// coverage rule.
	if err := f.Check(part); err != nil {
		t.Fatalf("post-island DRC: %v", err)
	}
	if err := f.SimulateWorkload(ctx); err != nil {
		t.Fatal(err)
	}
	// One island raised must cost less than all three raised, which
	// must cost less than the whole (shifter-bearing) design high.
	posC, err := f.Position("C")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.ScenarioPower(part, 1, posC)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := f.ScenarioPower(part, 3, posA)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalMW() >= p3.TotalMW() {
		t.Errorf("1-island power %.3f >= 3-island power %.3f", p1.TotalMW(), p3.TotalMW())
	}
	wide, err := f.ChipWidePower(posA)
	if err != nil {
		t.Fatal(err)
	}
	if p3.TotalMW() > wide.TotalMW() {
		t.Errorf("3-island power %.3f exceeds chip-wide %.3f", p3.TotalMW(), wide.TotalMW())
	}

	// Sensor plan is available and bounded.
	plan, err := f.SensorPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSensors() == 0 || plan.NumSensors() > 3*f.Cfg.SensorBudget {
		t.Errorf("sensors = %d", plan.NumSensors())
	}
}

func TestPositionLookup(t *testing.T) {
	f := New(TestConfig())
	pos, err := f.Position("B")
	if err != nil {
		t.Fatal(err)
	}
	if pos.Name != "B" || pos.XMM <= 0 {
		t.Error("position lookup broken")
	}
	if _, err := f.Position("Z"); err == nil {
		t.Error("unknown position accepted")
	} else if !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("error %v does not match ErrBadInput", err)
	}
}

// TestInsertShiftersRejectsBadPartition checks the pre-mutation guards:
// a nil or double-inserted partition must fail without touching state.
func TestInsertShiftersRejectsBadPartition(t *testing.T) {
	ctx := context.Background()
	f := New(TestConfig())
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.InsertShifters(ctx, nil); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("nil partition: %v, want ErrBadInput", err)
	}
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.InsertShifters(ctx, part); err != nil {
		t.Fatal(err)
	}
	cells := f.NL.NumCells()
	if _, _, err := f.InsertShifters(ctx, part); !errors.Is(err, flowerr.ErrStepOrder) {
		t.Errorf("double insertion: %v, want ErrStepOrder", err)
	}
	if f.NL.NumCells() != cells {
		t.Error("rejected insertion still mutated the netlist")
	}
}
