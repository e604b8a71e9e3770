package drc

import (
	"errors"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
)

// tinyDesign builds a minimal clean netlist+placement: two DFFs with a
// small combinational cloud between them.
func tinyDesign(t *testing.T) (*netlist.Netlist, *place.Placement) {
	t.Helper()
	b := netlist.NewBuilder("tiny", cell.Default65nm())
	d := b.NL.AddPI("d")
	q := b.DFF(d)
	x := b.Not(q)
	for i := 0; i < 30; i++ {
		x = b.And(b.Not(x), q)
	}
	b.DFF(x)
	pl, err := place.Global(b.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return b.NL, pl
}

func hasRule(r *Report, rule string) bool {
	for _, v := range r.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func TestCleanDesignPasses(t *testing.T) {
	nl, pl := tinyDesign(t)
	derate := make([]float64, nl.NumCells())
	for i := range derate {
		derate[i] = 1
	}
	region := make([]int32, nl.NumCells())
	r := Check(Inputs{NL: nl, PL: pl, Derate: derate, Region: region, ShiftersInserted: true})
	if !r.Clean() {
		t.Fatalf("clean design flagged:\n%s", r)
	}
	if r.Err() != nil {
		t.Error("clean report returned an error")
	}
}

func TestDanglingNetDetected(t *testing.T) {
	nl, _ := tinyDesign(t)
	// Orphan a net: give some instance an input on a fresh undriven
	// net that is not a PI.
	orphan := nl.AddNet("orphan")
	nl.RewireInput(1, 0, orphan)
	r := Check(Inputs{NL: nl})
	if !hasRule(r, RuleDanglingNet) {
		t.Fatalf("dangling net missed:\n%s", r)
	}
	if err := r.Err(); !errors.Is(err, flowerr.ErrDRC) {
		t.Errorf("report error %v does not match ErrDRC", err)
	}
}

func TestCombLoopDetected(t *testing.T) {
	b := netlist.NewBuilder("loop", cell.Default65nm())
	a := b.NL.AddPI("a")
	ph := b.NL.AddNet("ph")
	x := b.And(a, ph)
	y := b.Not(x)
	b.NL.ReplaceNetSinks(ph, y) // closes the combinational cycle
	r := Check(Inputs{NL: b.NL})
	if !hasRule(r, RuleCombLoop) {
		t.Fatalf("combinational loop missed:\n%s", r)
	}
}

func TestDriverBookkeepingDetected(t *testing.T) {
	nl, _ := tinyDesign(t)
	nl.Nets[nl.Insts[0].Out].Driver = netlist.NoInst
	r := Check(Inputs{NL: nl})
	if !hasRule(r, RuleDriverBook) {
		t.Fatalf("driver bookkeeping corruption missed:\n%s", r)
	}
}

func TestUnplacedAndMisplacedDetected(t *testing.T) {
	nl, pl := tinyDesign(t)
	short := *pl
	short.X = pl.X[:len(pl.X)-1]
	r := Check(Inputs{NL: nl, PL: &short})
	if !hasRule(r, RuleUnplaced) {
		t.Fatalf("short placement missed:\n%s", r)
	}

	pl.X[0] = math.NaN()
	pl.X[1] = pl.DieW * 4
	pl.Y[2] = pl.RowHeight * 0.5
	r = Check(Inputs{NL: nl, PL: pl})
	if !hasRule(r, RuleMisplaced) {
		t.Fatalf("misplaced cells missed:\n%s", r)
	}
}

func TestStackedCellsDetected(t *testing.T) {
	nl, pl := tinyDesign(t)
	for i := range pl.X {
		pl.X[i], pl.Y[i] = 0, 0
	}
	r := Check(Inputs{NL: nl, PL: pl})
	if !hasRule(r, RuleStackedCells) {
		t.Fatalf("stacked cells missed:\n%s", r)
	}
}

func TestMissingLevelShifterDetected(t *testing.T) {
	nl, _ := tinyDesign(t)
	region := make([]int32, nl.NumCells())
	// Find a net whose driver is combinational and has a sink; put the
	// driver in island 2 and a sink in island 1 — a low->high crossing
	// in scenario 1 with no shifter in between.
	found := false
	for n := range nl.Nets {
		drv := nl.Nets[n].Driver
		if drv == netlist.NoInst || len(nl.Nets[n].Sinks) == 0 {
			continue
		}
		region[drv] = 2
		region[nl.Nets[n].Sinks[0].Inst] = 1
		found = true
		break
	}
	if !found {
		t.Fatal("no crossing candidate in fixture")
	}
	r := Check(Inputs{NL: nl, Region: region, ShiftersInserted: true})
	if !hasRule(r, RuleMissingLS) {
		t.Fatalf("missing level shifter not detected:\n%s", r)
	}
	// Pre-insertion the same crossing is legal.
	r = Check(Inputs{NL: nl, Region: region, ShiftersInserted: false})
	if hasRule(r, RuleMissingLS) {
		t.Error("crossing flagged before shifter insertion")
	}
}

func TestDerateRules(t *testing.T) {
	nl, _ := tinyDesign(t)
	r := Check(Inputs{NL: nl, Derate: []float64{1}})
	if !hasRule(r, RuleDerateLen) {
		t.Fatalf("derate length mismatch missed:\n%s", r)
	}
	derate := make([]float64, nl.NumCells())
	for i := range derate {
		derate[i] = 1
	}
	derate[0] = math.NaN()
	derate[1] = -2
	r = Check(Inputs{NL: nl, Derate: derate})
	if !hasRule(r, RuleDerateVal) {
		t.Fatalf("bad derate values missed:\n%s", r)
	}
}

func TestRegionLengthDetected(t *testing.T) {
	nl, _ := tinyDesign(t)
	r := Check(Inputs{NL: nl, Region: []int32{0}})
	if !hasRule(r, RuleRegionLen) {
		t.Fatalf("region length mismatch missed:\n%s", r)
	}
}

func TestPerRuleTruncation(t *testing.T) {
	nl, _ := tinyDesign(t)
	derate := make([]float64, nl.NumCells())
	for i := range derate {
		derate[i] = math.NaN()
	}
	r := Check(Inputs{NL: nl, Derate: derate})
	if len(r.Violations) > maxPerRule {
		t.Errorf("%d violations retained, bound is %d", len(r.Violations), maxPerRule)
	}
	if nl.NumCells() > maxPerRule && r.Truncated == 0 {
		t.Error("truncation not recorded")
	}
}
