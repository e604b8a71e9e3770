package sta

import (
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/vex"
)

// pipe builds DFF -> inv chain (n deep) -> DFF.
func pipe(depth int) *netlist.Netlist {
	b := netlist.NewBuilder("pipe", cell.Default65nm())
	d := b.Input("d")
	restore := b.Scope(netlist.StageDecode, "stage1")
	q := b.DFF(d)
	restore()
	n := q
	for i := 0; i < depth; i++ {
		n = b.Not(n)
	}
	restore = b.Scope(netlist.StageExecute, "stage2")
	b.DFF(n)
	restore()
	return b.NL
}

func analyze(t *testing.T, nl *netlist.Netlist) *Analyzer {
	t.Helper()
	p, err := place.Global(nl, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrivalGrowsWithDepth(t *testing.T) {
	a5 := analyze(t, pipe(5))
	a20 := analyze(t, pipe(20))
	r5 := a5.Run(10000, nil)
	r20 := a20.Run(10000, nil)
	if r20.CritPS <= r5.CritPS {
		t.Errorf("deeper chain not slower: %g vs %g", r20.CritPS, r5.CritPS)
	}
	// 15 extra inverters at >= 12ps each.
	if r20.CritPS-r5.CritPS < 15*12 {
		t.Errorf("depth scaling too weak: %g vs %g", r5.CritPS, r20.CritPS)
	}
}

func TestSlackSignAroundCritical(t *testing.T) {
	a := analyze(t, pipe(10))
	rep := a.Run(10000, nil)
	if rep.WorstSlack <= 0 {
		t.Fatalf("10ns clock should have positive slack, got %g", rep.WorstSlack)
	}
	tight := a.Run(rep.CritPS-1, nil)
	if tight.WorstSlack >= 0 {
		t.Errorf("clock below critical must violate, slack=%g", tight.WorstSlack)
	}
	exact := a.Run(rep.CritPS, nil)
	if math.Abs(exact.WorstSlack) > 1e-6 {
		t.Errorf("clock at critical: slack = %g, want 0", exact.WorstSlack)
	}
}

func TestScaleSpeedsAndSlows(t *testing.T) {
	nl := pipe(10)
	a := analyze(t, nl)
	nom := a.Run(10000, nil).CritPS
	slow := make([]float64, nl.NumCells())
	fast := make([]float64, nl.NumCells())
	for i := range slow {
		slow[i] = 1.2
		fast[i] = 0.8
	}
	if got := a.Run(10000, slow).CritPS; got <= nom {
		t.Errorf("slow scale did not slow: %g vs %g", got, nom)
	}
	if got := a.Run(10000, fast).CritPS; got >= nom {
		t.Errorf("fast scale did not speed up: %g vs %g", got, nom)
	}
}

func TestScaleIsPerInstance(t *testing.T) {
	// Two parallel chains; slowing only one must move only its
	// endpoint.
	b := netlist.NewBuilder("two", cell.Default65nm())
	d := b.Input("d")
	q := b.DFF(d)
	n1, n2 := q, q
	for i := 0; i < 5; i++ {
		n1 = b.Not(n1)
		n2 = b.Not(n2)
	}
	b.DFF(n1)
	b.DFF(n2)
	nl := b.NL
	a := analyze(t, nl)
	scale := make([]float64, nl.NumCells())
	for i := range scale {
		scale[i] = 1
	}
	rep := a.Run(10000, nil)
	// Identify the instances on chain 1 by walking the critical
	// path of endpoint 1 and scaling them 2x.
	ep := rep.Endpoints[1]
	for _, st := range a.CriticalPath(rep, ep, nil) {
		if st.Inst != netlist.NoInst && !nl.IsSequential(st.Inst) {
			scale[st.Inst] = 2
		}
	}
	rep2 := a.Run(10000, scale)
	if rep2.Endpoints[1].Arrival <= rep.Endpoints[1].Arrival {
		t.Error("scaled chain did not slow")
	}
	if math.Abs(rep2.Endpoints[2].Arrival-rep.Endpoints[2].Arrival) > 1e-9 {
		t.Error("unscaled chain moved")
	}
}

func TestPerStageGrouping(t *testing.T) {
	a := analyze(t, pipe(8))
	rep := a.Run(10000, nil)
	present := 0
	for _, p := range rep.Present {
		if p {
			present++
		}
	}
	if present != 2 {
		t.Fatalf("stages = %d, want 2 (decode, execute)", present)
	}
	if !rep.Present[netlist.StageDecode] || !rep.Present[netlist.StageExecute] {
		t.Fatal("missing stage groups")
	}
	dec, ex := rep.Lanes[netlist.StageDecode], rep.Lanes[netlist.StageExecute]
	// The input DFF (decode endpoint) is fed by a PI: short path.
	// The execute endpoint sits behind the inverter chain.
	if dec.WorstArr >= ex.WorstArr {
		t.Errorf("decode arr %g should be before execute arr %g", dec.WorstArr, ex.WorstArr)
	}
}

func TestCriticalPathWalk(t *testing.T) {
	a := analyze(t, pipe(6))
	rep := a.Run(10000, nil)
	var worst Endpoint
	worst.Slack = math.Inf(1)
	for _, ep := range rep.Endpoints {
		if ep.Slack < worst.Slack {
			worst = ep
		}
	}
	path := a.CriticalPath(rep, worst, nil)
	// Path: start DFF + 6 inverters.
	if len(path) != 7 {
		t.Fatalf("path length %d, want 7: %v", len(path), path)
	}
	if !a.NL.IsSequential(path[0].Inst) {
		t.Error("path should start at a flop")
	}
	sum := 0.0
	for _, s := range path {
		sum += s.DelayPS + s.WirePS
	}
	if math.Abs(sum-worst.Arrival) > 1e-6 {
		t.Errorf("path sums to %g, endpoint arrival %g", sum, worst.Arrival)
	}
}

func TestConstantsLaunchNoPaths(t *testing.T) {
	b := netlist.NewBuilder("k", cell.Default65nm())
	k := b.Const(true)
	n := k
	for i := 0; i < 50; i++ {
		n = b.Not(n)
	}
	b.DFF(n)
	a := analyze(t, b.NL)
	rep := a.Run(100, nil)
	// The only endpoint is fed purely by constants: no endpoint
	// should be reported, or it must be unconstrained.
	if len(rep.Endpoints) != 0 {
		t.Errorf("constant-fed endpoint constrained: %+v", rep.Endpoints)
	}
	if rep.CritPS != 0 {
		t.Errorf("CritPS = %g, want 0", rep.CritPS)
	}
}

func TestRefreshAfterNetlistGrowth(t *testing.T) {
	nl := pipe(4)
	p, err := place.Global(nl, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Run(10000, nil).CritPS
	// Splice a buffer into the chain.
	targetInst := nl.Nets[nl.Insts[2].Out].Sinks[0]
	buf := nl.AddInst(cell.Buf, "b1", netlist.StageNone, "", nl.Insts[2].Out)
	nl.RewireInput(targetInst.Inst, targetInst.Pin, buf)
	p.Extend()
	p.InsertAt(nl.NumCells()-1, p.DieW/2, p.DieH/2)
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	after := a.Run(10000, nil).CritPS
	if after <= before {
		t.Errorf("inserted buffer did not add delay: %g vs %g", after, before)
	}
}

func TestUnitKey(t *testing.T) {
	cases := map[string]string{
		"execute/slot2/alu": "execute/alu",
		"execute/fwd":       "execute/fwd",
		"decode/bypass":     "decode/bypass",
		"regfile":           "regfile",
		"":                  "(untagged)",
		"a/b/c":             "a/b",
		"slot1/x":           "x",
	}
	for in, want := range cases {
		if got := UnitKey(in); got != want {
			t.Errorf("UnitKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFmaxMHz(t *testing.T) {
	if got := FmaxMHz(4000); math.Abs(got-250) > 1e-9 {
		t.Errorf("4ns -> %g MHz, want 250", got)
	}
	if !math.IsInf(FmaxMHz(0), 1) {
		t.Error("zero period should be infinite fmax")
	}
}

func TestMismatchedPlacementRejected(t *testing.T) {
	nl1, nl2 := pipe(3), pipe(3)
	p2, err := place.Global(nl2, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nl1, p2); err == nil {
		t.Error("cross-netlist placement accepted")
	}
}

func TestVexCoreTimingSanity(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, core.NL)
	rep := a.Run(20000, nil)
	// All four stages must have endpoints; write-back owns the
	// register file.
	for _, st := range []netlist.Stage{netlist.StageFetch, netlist.StageDecode, netlist.StageExecute, netlist.StageWriteback} {
		if !rep.Present[st] {
			t.Errorf("no endpoints in %v", st)
		}
	}
	if rep.CritPS <= 0 {
		t.Fatal("no critical path")
	}
	// The execute stage should be the critical one in this
	// microarchitecture (ripple ALU behind forwarding).
	ex := rep.Lanes[netlist.StageExecute]
	for st, v := range rep.Lanes {
		if !rep.Present[st] || netlist.Stage(st) == netlist.StageNone {
			continue
		}
		if v.WorstArr > ex.WorstArr+1e-9 {
			t.Errorf("stage %v (%g ps) beats execute (%g ps)", st, v.WorstArr, ex.WorstArr)
		}
	}
}
