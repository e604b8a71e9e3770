package vipipe

import (
	"context"
	"testing"

	"vipipe/internal/netlist"
	"vipipe/internal/vi"
)

// claimRun is one strategy's pass through the paper's flow.
type claimRun struct {
	degradation float64
	shifters    int
	// ratio is the post-shifter VI design's total power over the
	// chip-wide baseline measured before shifter insertion (Fig. 5),
	// for scenarios 1..3 at positions C, B, A.
	ratio [3]float64
}

// runClaimFlow runs the cmd/vipipe sequence for one strategy on a
// fresh flow: characterize, chip-wide power, islands, level shifters,
// re-simulation and scenario power.
func runClaimFlow(t *testing.T, cfg Config, strat vi.Strategy) (*Flow, claimRun) {
	t.Helper()
	ctx := context.Background()
	f := New(cfg)
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.SimulateWorkload(ctx); err != nil {
		t.Fatal(err)
	}
	var run claimRun
	var chipWide [3]float64
	for k, name := range []string{"C", "B", "A"} {
		pos, err := f.Position(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.ChipWidePower(pos)
		if err != nil {
			t.Fatal(err)
		}
		chipWide[k] = rep.TotalMW()
	}
	part, err := f.GenerateIslands(ctx, strat)
	if err != nil {
		t.Fatal(err)
	}
	if run.shifters, run.degradation, err = f.InsertShifters(ctx, part); err != nil {
		t.Fatal(err)
	}
	if err := f.SimulateWorkload(ctx); err != nil {
		t.Fatal(err)
	}
	for k, name := range []string{"C", "B", "A"} {
		pos, err := f.Position(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.ScenarioPower(part, k+1, pos)
		if err != nil {
			t.Fatal(err)
		}
		run.ratio[k] = rep.TotalMW() / chipWide[k]
	}
	return f, run
}

// TestPaperClaims holds the flow to the paper's qualitative claims
// that hold on every seed of TestConfig 1-5: the C/B/A scenario
// ladder, Fig. 3's stage order at A, lower post-shifter degradation
// for vertical slicing, and power savings that grow as the scenario
// gets less severe. The claims that fail are recorded, with their
// numbers, in EXPERIMENTS.md and are not asserted here.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole flow ten times")
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := TestConfig()
		cfg.Seed = seed
		fv, vert := runClaimFlow(t, cfg, vi.Vertical)
		_, horiz := runClaimFlow(t, cfg, vi.Horizontal)

		var ladder []string
		for _, p := range fv.ScenarioPositions {
			ladder = append(ladder, p.Name)
		}
		if len(ladder) != 3 || ladder[0] != "C" || ladder[1] != "B" || ladder[2] != "A" {
			t.Errorf("seed %d: scenario ladder %v, want [C B A]", seed, ladder)
		}

		a := fv.MC["A"].PerStage
		ex, dc, wb := a[netlist.StageExecute].Fit.Mu, a[netlist.StageDecode].Fit.Mu, a[netlist.StageWriteback].Fit.Mu
		if !(ex < dc && dc < wb) {
			t.Errorf("seed %d: mean slack at A EX %.1f / DC %.1f / WB %.1f ps, want EX < DC < WB", seed, ex, dc, wb)
		}

		if vert.degradation >= horiz.degradation {
			t.Errorf("seed %d: post-shifter degradation vertical %.3f, horizontal %.3f, want vertical lower",
				seed, vert.degradation, horiz.degradation)
		}

		for _, r := range []struct {
			strat vi.Strategy
			run   claimRun
		}{{vi.Vertical, vert}, {vi.Horizontal, horiz}} {
			c1, b2, a3 := r.run.ratio[0], r.run.ratio[1], r.run.ratio[2]
			if !(a3 >= b2 && b2 >= c1) {
				t.Errorf("seed %d, %s: VI/chip-wide power A3 %.3f, B2 %.3f, C1 %.3f, want A3 >= B2 >= C1",
					seed, r.strat, a3, b2, c1)
			}
		}
		t.Logf("seed %d: degradation V %.3f H %.3f; shifters V %d H %d; ratio C1/B2/A3 V %.3f/%.3f/%.3f H %.3f/%.3f/%.3f; mean slack A EX/DC/WB %.1f/%.1f/%.1f",
			seed, vert.degradation, horiz.degradation, vert.shifters, horiz.shifters,
			vert.ratio[0], vert.ratio[1], vert.ratio[2], horiz.ratio[0], horiz.ratio[1], horiz.ratio[2], ex, dc, wb)
	}
}
