package power

import (
	"context"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/gsim"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/vex"
	"vipipe/internal/vexsim"
)

func toggleFixture(t *testing.T) (*netlist.Netlist, []float64) {
	t.Helper()
	b := netlist.NewBuilder("p", cell.Default65nm())
	d := b.NL.AddPI("d")
	q := b.DFF(d)
	inv := b.Not(q)
	_ = inv
	s, err := gsim.New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 33; c++ {
		s.SetPIWord(netlist.Word{d}, uint64(c%2))
		s.Step()
	}
	return b.NL, s.Activity()
}

func TestAnalyzeValidation(t *testing.T) {
	nl, act := toggleFixture(t)
	if _, err := Analyze(Inputs{NL: nil, Activity: act, FreqMHz: 100}); err == nil {
		t.Error("nil netlist accepted")
	}
	if _, err := Analyze(Inputs{NL: nl, Activity: act[:1], FreqMHz: 100}); err == nil {
		t.Error("short activity accepted")
	}
	if _, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, Domains: []cell.Domain{0}}); err == nil {
		t.Error("short domains accepted")
	}
	if _, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, LgateNM: []float64{65}}); err == nil {
		t.Error("short lgate accepted")
	}
}

func TestDynamicScalesWithFrequencyAndActivity(t *testing.T) {
	nl, act := toggleFixture(t)
	r100, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	r200, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r200.DynamicMW-2*r100.DynamicMW) > 1e-12 {
		t.Errorf("dynamic not linear in f: %g vs %g", r200.DynamicMW, r100.DynamicMW)
	}
	if math.Abs(r200.LeakMW-r100.LeakMW) > 1e-15 {
		t.Error("leakage should not depend on f")
	}
	// Zero activity: only clock power (flops) remains dynamic.
	zero := make([]float64, nl.NumNets())
	rz, err := Analyze(Inputs{NL: nl, Activity: zero, FreqMHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rz.DynamicMW <= 0 {
		t.Error("clock power missing at zero activity")
	}
	if rz.DynamicMW >= r100.DynamicMW {
		t.Error("zero-activity dynamic should be below switching dynamic")
	}
}

func TestHighVddCostsQuadratic(t *testing.T) {
	nl, act := toggleFixture(t)
	low, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	doms := make([]cell.Domain, nl.NumCells())
	for i := range doms {
		doms[i] = cell.DomainHigh
	}
	high, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, Domains: doms})
	if err != nil {
		t.Fatal(err)
	}
	ratio := high.DynamicMW / low.DynamicMW
	// All energy terms scale with Vdd^2 = 1.44.
	if math.Abs(ratio-1.44) > 1e-9 {
		t.Errorf("dynamic high/low ratio = %g, want 1.44", ratio)
	}
	if high.LeakMW <= low.LeakMW {
		t.Error("leakage must rise at high Vdd")
	}
}

func TestLeakageLgateScaling(t *testing.T) {
	nl, act := toggleFixture(t)
	short := make([]float64, nl.NumCells())
	long := make([]float64, nl.NumCells())
	for i := range short {
		short[i] = 60
		long[i] = 70
	}
	rs, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, LgateNM: short})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, LgateNM: long})
	if err != nil {
		t.Fatal(err)
	}
	if rs.LeakMW <= rl.LeakMW {
		t.Errorf("short channel should leak more: %g vs %g", rs.LeakMW, rl.LeakMW)
	}
}

func TestShifterAccounting(t *testing.T) {
	b := netlist.NewBuilder("ls", cell.Default65nm())
	d := b.NL.AddPI("d")
	q := b.DFF(d)
	ls := b.NL.AddInst(cell.LvlShift, "ls0", netlist.StageNone, "ls", q)
	b.Output(ls)
	s, err := gsim.New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 17; c++ {
		s.SetPIWord(netlist.Word{d}, uint64((c+1)%2))
		s.Step()
	}
	rep, err := Analyze(Inputs{NL: b.NL, Activity: s.Activity(), FreqMHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShifterMW() <= 0 {
		t.Fatal("level shifter power not accounted")
	}
	if rep.ShifterFrac() <= 0 || rep.ShifterFrac() >= 1 {
		t.Errorf("shifter fraction %g out of range", rep.ShifterFrac())
	}
}

func TestVexFIRPowerBreakdown(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	fir, err := vexsim.NewFIR(core.Cfg, 12, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := vexsim.NewTestbench(core, fir.Prog, fir.DMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RunContext(context.Background(), fir.Cycles); err != nil {
		t.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(Inputs{NL: core.NL, PL: pl, Activity: tb.Activity(), FreqMHz: 250})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMW() <= 0 {
		t.Fatal("no power")
	}
	// Shape checks on the reduced core (the full Table 1 comparison
	// runs on the default core in the benchmark harness): the
	// register file must be a major consumer, fetch negligible, and
	// leakage a small percentage for this low-power library (the
	// paper reports 1.1%).
	shares := make(map[string]float64)
	for i, u := range rep.ByUnit {
		shares[u.Unit] = u.TotalMW() / rep.TotalMW()
		if u.Unit == "regfile" && i > 2 {
			t.Errorf("regfile rank %d, want top-3", i+1)
		}
	}
	if shares["regfile"] < 0.10 {
		t.Errorf("regfile power share %.2f too small", shares["regfile"])
	}
	if shares["fetch"] > 0.02 {
		t.Errorf("fetch power share %.3f should be negligible", shares["fetch"])
	}
	leakFrac := rep.LeakMW / rep.TotalMW()
	if leakFrac > 0.10 {
		t.Errorf("leakage fraction %.3f too large for a low-power library", leakFrac)
	}
	if rep.String() == "" {
		t.Error("empty render")
	}
}

func TestByDomainSplit(t *testing.T) {
	nl, act := toggleFixture(t)
	doms := make([]cell.Domain, nl.NumCells())
	doms[0] = cell.DomainHigh // one cell on the high rail
	rep, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100, Domains: doms})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := rep.ByDomain[cell.DomainLow], rep.ByDomain[cell.DomainHigh]
	if hi.TotalMW() <= 0 {
		t.Error("high rail empty despite one boosted cell")
	}
	sum := lo.TotalMW() + hi.TotalMW()
	if math.Abs(sum-rep.TotalMW()) > 1e-12 {
		t.Errorf("domain split %g != total %g", sum, rep.TotalMW())
	}
	// All low: high rail must be zero.
	rep2, err := Analyze(Inputs{NL: nl, Activity: act, FreqMHz: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ByDomain[cell.DomainHigh].TotalMW() != 0 {
		t.Error("high rail nonzero with all-low domains")
	}
}
