package mc

import (
	"context"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

// TestChipMatchesExactWithDomains holds the sample core to exact
// timing with a derate and a half-die high-Vdd island set: on drawn
// chips, and after an overlay shift across the island edge, Crit and
// Frame equal Kernel.RunFrame on SampleScaler.Scale(lg, derate,
// domains) bit for bit.
func TestChipMatchesExactWithDomains(t *testing.T) {
	f := coreFixture(t)
	a := f.a
	n := a.NL.NumCells()
	domains := make([]cell.Domain, n)
	var disc []int
	for i := range domains {
		cx, cy := a.PL.Center(i)
		if cx < a.PL.DieW/2 {
			domains[i] = cell.DomainHigh
		}
		if dx, dy := cx-a.PL.DieW/2, cy-a.PL.DieH/2; dx*dx+dy*dy <= a.PL.DieW*a.PL.DieW/16 {
			disc = append(disc, i)
		}
	}
	if len(disc) == 0 {
		t.Fatal("overlay disc covers no cells")
	}
	pos := f.model.DiagonalPositions()[0]
	chip, err := NewChip(sta.NewKernel(a), a.PL, &a.NL.Lib.Tech, &f.model, pos, 11, f.clock, f.derate, domains)
	if err != nil {
		t.Fatal(err)
	}
	ref := sta.NewKernel(a)
	sc := a.NL.Lib.Tech.SampleScaler()
	scale := make([]float64, n)
	var got, want sta.Frame
	violated := false
	for k := 0; k < 24; k++ {
		chip.Sample(k)
		for _, step := range []string{"drawn", "shifted"} {
			if step == "shifted" {
				chip.Shift(disc, 0.05*f.model.LnomNM)
			}
			sc.Scale(scale, chip.lg, f.derate, domains)
			ref.RunFrame(&want, f.clock, scale)
			if crit := chip.Crit(); math.Float64bits(crit) != math.Float64bits(want.CritPS) {
				t.Fatalf("sample %d %s: Crit %v, exact %v", k, step, crit, want.CritPS)
			}
			chip.Frame(&got)
			if !sameFrame(&got, &want) {
				t.Fatalf("sample %d %s: Frame %+v, exact %+v", k, step, got, want)
			}
			violated = violated || want.WorstSlack < 0
		}
	}
	if !violated {
		t.Error("no sample violated: negative slacks went unchecked")
	}
}

// sameFrame reports whether two frames hold the same bits.
func sameFrame(a, b *sta.Frame) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.ClockPS, b.ClockPS) || !same(a.CritPS, b.CritPS) || !same(a.WorstSlack, b.WorstSlack) ||
		a.Present != b.Present {
		return false
	}
	for s := range a.Lanes {
		x, y := a.Lanes[s], b.Lanes[s]
		if !same(x.WorstSlack, y.WorstSlack) || x.Endpoint != y.Endpoint || x.Endpoints != y.Endpoints {
			return false
		}
	}
	return true
}

// BenchmarkChipSample is one whole sample of the full-size core
// (32-bit, 4-issue VEX) with its slack-recovery derate at position A:
// draw, brackets, Bound, then the refine of the yield shards (crit) or
// of mc.Run (frame). exact_cells/op is the cells sent to the exact
// scaler per sample.
func BenchmarkChipSample(b *testing.B) {
	core, err := vex.Build(vex.DefaultConfig(), cell.Default65nm())
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		b.Fatal(err)
	}
	clock := a.Run(1e9, nil).CritPS * 1.001
	derate, err := a.SlackRecoveryCtx(context.Background(), clock, sta.DefaultRecoveryTargets(), 12, 25)
	if err != nil {
		b.Fatal(err)
	}
	model := variation.Default()
	pos, ok := model.Position("A")
	if !ok {
		b.Fatal("no position A")
	}
	chip, err := NewChip(sta.NewKernel(a), pl, &core.NL.Lib.Tech, &model, pos, 1, clock, derate, nil)
	if err != nil {
		b.Fatal(err)
	}
	sent := 0
	exact := chip.exact
	chip.exact = func(cells []int32, out []float64) {
		sent += len(cells)
		exact(cells, out)
	}
	var frame sta.Frame
	for _, mode := range []string{"crit", "frame"} {
		b.Run(mode, func(b *testing.B) {
			sent = 0
			for k := 0; k < b.N; k++ {
				chip.Sample(k)
				if mode == "crit" {
					benchSink = chip.Crit()
				} else {
					chip.Frame(&frame)
				}
			}
			b.ReportMetric(float64(sent)/float64(b.N), "exact_cells/op")
		})
	}
}

var benchSink float64
