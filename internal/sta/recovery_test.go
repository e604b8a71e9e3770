package sta

import (
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/vex"
)

// twoStage builds a fast decode-stage chain and a slow execute-stage
// chain between flops.
func twoStage(fast, slow int) *netlist.Netlist {
	b := netlist.NewBuilder("ts", cell.Default65nm())
	d := b.Input("d")
	q := b.DFF(d)
	nf, ns := q, q
	for i := 0; i < fast; i++ {
		nf = b.Not(nf)
	}
	for i := 0; i < slow; i++ {
		ns = b.Not(ns)
	}
	r := b.Scope(netlist.StageDecode, "dec")
	b.DFF(nf)
	r()
	r = b.Scope(netlist.StageExecute, "ex")
	b.DFF(ns)
	r()
	return b.NL
}

func TestSlackRecoveryClosesTheGap(t *testing.T) {
	nl := twoStage(5, 40)
	a := analyze(t, nl)
	nom := a.Run(1e9, nil) // huge clock: measure raw arrivals
	clock := nom.Lanes[netlist.StageExecute].WorstArr * 1.02
	targets := RecoveryTargets{
		netlist.StageDecode:  0.95,
		netlist.StageExecute: 1.0,
	}
	derate := a.SlackRecovery(clock, targets, 50, 30)
	rep := a.Run(clock, derate)
	dec := rep.Lanes[netlist.StageDecode].WorstArr
	ex := rep.Lanes[netlist.StageExecute].WorstArr
	// Decode was ~8x faster than execute; after recovery it must sit
	// near 95% of the clock.
	if dec < 0.85*clock {
		t.Errorf("decode arr %.0f still far below clock %.0f", dec, clock)
	}
	if dec > clock {
		t.Errorf("decode arr %.0f overshot the clock %.0f", dec, clock)
	}
	// Execute (the critical stage) must be essentially untouched.
	if ex > nom.Lanes[netlist.StageExecute].WorstArr*1.05 {
		t.Errorf("execute slowed from %.0f to %.0f", nom.Lanes[netlist.StageExecute].WorstArr, ex)
	}
	// All derates are >= 1 (recovery never speeds cells up).
	for i, f := range derate {
		if f < 1 {
			t.Fatalf("derate[%d] = %g < 1", i, f)
		}
	}
}

func TestSlackRecoveryRespectsMaxDerate(t *testing.T) {
	nl := twoStage(2, 60)
	a := analyze(t, nl)
	nom := a.Run(1e9, nil)
	clock := nom.Lanes[netlist.StageExecute].WorstArr
	derate := a.SlackRecovery(clock, DefaultRecoveryTargets(), 2.0, 30)
	for i, f := range derate {
		if f > 2.0+1e-9 {
			t.Fatalf("derate[%d] = %g exceeds cap", i, f)
		}
	}
	// With a tight cap the 2-inverter chain cannot reach the wall.
	rep := a.Run(clock, derate)
	if dec := rep.Lanes[netlist.StageDecode].WorstArr; dec > 0.6*clock {
		t.Errorf("capped recovery reached %.0f of clock %.0f — cap ineffective", dec, clock)
	}
}

func TestRequiredTimesConsistentWithSlack(t *testing.T) {
	nl := twoStage(3, 12)
	a := analyze(t, nl)
	clock := 5000.0
	rep := a.Run(clock, nil)
	req := make([]float64, nl.NumNets())
	a.requiredTimesInto(req, rep, nil, func(ep *Endpoint) float64 { return clock })
	// For each endpoint net, req = clock - setup - wire, and slack
	// computed from req must match the report's endpoint slack.
	for _, ep := range rep.Endpoints {
		want := clock - a.setup[ep.Inst] - a.wire[ep.Net]
		if math.Abs(req[ep.Net]-want) > 1e-9 {
			t.Errorf("req[%d] = %g, want %g", ep.Net, req[ep.Net], want)
		}
		slackViaReq := req[ep.Net] - rep.Arrival[ep.Net]
		if math.Abs(slackViaReq-ep.Slack) > 1e-9 {
			t.Errorf("slack mismatch: %g vs %g", slackViaReq, ep.Slack)
		}
	}
}

func TestVexRecoveryReproducesStageWall(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(core.NL, p)
	if err != nil {
		t.Fatal(err)
	}
	nom := a.Run(1e9, nil)
	clock := nom.CritPS * 1.01
	derate := a.SlackRecovery(clock, DefaultRecoveryTargets(), 12, 25)
	rep := a.Run(clock, derate)

	ex := rep.Lanes[netlist.StageExecute].WorstArr
	dc := rep.Lanes[netlist.StageDecode].WorstArr
	wb := rep.Lanes[netlist.StageWriteback].WorstArr
	// Fig. 3 ordering: EX most critical, then DC, then WB, all close
	// to the clock.
	if !(ex > dc && dc > wb) {
		t.Errorf("stage ordering wrong: ex=%.0f dc=%.0f wb=%.0f", ex, dc, wb)
	}
	if dc < 0.90*clock || wb < 0.88*clock {
		t.Errorf("stages not near the wall: clock=%.0f dc=%.0f wb=%.0f", clock, dc, wb)
	}
	if rep.WorstSlack < -clock*0.02 {
		t.Errorf("recovery violated the clock: worst slack %.0f", rep.WorstSlack)
	}
}
