package mc

import (
	"math"
	"slices"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/sta"
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
			violated = violated || len(want.Violators) > 0
		}
	}
	if !violated {
		t.Error("no sample violated: the violator scan went unchecked")
	}
}

// sameFrame reports whether two frames hold the same bits.
func sameFrame(a, b *sta.Frame) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.ClockPS, b.ClockPS) || !same(a.CritPS, b.CritPS) || !same(a.WorstSlack, b.WorstSlack) ||
		a.Present != b.Present || !slices.Equal(a.Violators, b.Violators) {
		return false
	}
	for s := range a.Lanes {
		x, y := a.Lanes[s], b.Lanes[s]
		if !same(x.WorstSlack, y.WorstSlack) || !same(x.WorstArr, y.WorstArr) || x.Endpoint != y.Endpoint || x.Endpoints != y.Endpoints {
			return false
		}
	}
	return true
}
