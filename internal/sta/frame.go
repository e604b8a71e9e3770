package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// StageLane is one pipeline stage's endpoint summary inside a Frame.
type StageLane struct {
	Stage      netlist.Stage
	WorstSlack float64
	WorstArr   float64
	Endpoint   int // instance of the worst endpoint (netlist.NoInst for a PO)
	Endpoints  int
}

// Frame is the endpoint summary of one timing evaluation: fixed-size
// per-stage lanes, so Monte Carlo loops can store sample outcomes in
// flat arrays. Kernel.RunFrame fills one directly; a Report embeds the
// one Analyzer.RunInto fills.
type Frame struct {
	ClockPS    float64
	CritPS     float64 // minimum feasible clock period (max arrival + setup)
	WorstSlack float64
	// Lanes is indexed by stage; Present marks stages that have at
	// least one constrained endpoint (structural: the set does not
	// vary with the scale vector).
	Lanes   [netlist.NumStages]StageLane
	Present [netlist.NumStages]bool
	// Violators lists the flop instances with negative slack, in
	// ascending instance order (primary outputs are excluded).
	Violators []int32
}

// RunFrame performs a full timing analysis and summarizes every
// endpoint into f. The frame is bit-identical to the one an
// Analyzer.RunInto call reports for the same clock and scale.
func (k *Kernel) RunFrame(f *Frame, clockPS float64, scale []float64) {
	k.propagate(k.arrivals(), scale)
	k.endpoints(f, nil, k.arr, clockPS, scale)
}

// endpoints evaluates every endpoint against the arrivals arr into f
// and, when eps is non-nil, appends each constrained endpoint to it.
// Flop D pins are scanned in ascending instance order, then primary
// outputs, so tie-breaking on equal slacks follows that order.
// Endpoint arithmetic keeps the clock-relative form: a flop's crit is
// t + (clock - need), not t + setup, which rounds differently.
func (s *shape) endpoints(f *Frame, eps *[]Endpoint, arr []float64, clockPS float64, scale []float64) {
	neg := math.Inf(-1)
	f.reset(clockPS)
	for _, i := range s.seq {
		need := s.required(clockPS, i, scale[i])
		n := s.in0[i]
		t := arr[n] + s.wire[n]
		if t == neg {
			continue // constant path: unconstrained
		}
		slack := need - t
		f.count(s.stage[i])
		f.observe(i, t, need, slack, s.stage[i])
		if slack < 0 {
			f.Violators = append(f.Violators, int32(i))
		}
		if eps != nil {
			*eps = append(*eps, Endpoint{Inst: i, Net: int(n), Stage: s.stage[i], Arrival: t, Slack: slack})
		}
	}
	for _, n := range s.pos {
		t := arr[n] + s.wire[n]
		if t == neg {
			continue
		}
		f.count(netlist.StageNone)
		f.observe(netlist.NoInst, t, clockPS, clockPS-t, netlist.StageNone)
		if eps != nil {
			*eps = append(*eps, Endpoint{Inst: netlist.NoInst, Net: n, Stage: netlist.StageNone, Arrival: t, Slack: clockPS - t})
		}
	}
}

// reset empties f for an evaluation at clockPS.
func (f *Frame) reset(clockPS float64) {
	f.ClockPS = clockPS
	f.CritPS = 0
	f.WorstSlack = math.Inf(1)
	f.Violators = f.Violators[:0]
	for s := range f.Lanes {
		f.Lanes[s] = StageLane{Stage: netlist.Stage(s), WorstSlack: math.Inf(1)}
		f.Present[s] = false
	}
}

// count records one constrained endpoint of a stage.
func (f *Frame) count(stage netlist.Stage) {
	f.Present[stage] = true
	f.Lanes[stage].Endpoints++
}

// observe folds one endpoint's arrival t, required time need and
// slack into the global worst slack, the critical path and its stage
// lane's worst endpoint.
func (f *Frame) observe(inst int, t, need, slack float64, stage netlist.Stage) {
	if slack < f.WorstSlack {
		f.WorstSlack = slack
	}
	if crit := t + (f.ClockPS - need); crit > f.CritPS {
		f.CritPS = crit
	}
	lane := &f.Lanes[stage]
	if slack < lane.WorstSlack {
		lane.WorstSlack = slack
		lane.WorstArr = t
		lane.Endpoint = inst
	}
}

// KernelView is a read-only handle on the analyzer a kernel times,
// for model extractors (internal/tmodel) that time the design through
// the analyzer's own functions: RunInto, CriticalPath and a kernel's
// RunFrame. The Monte Carlo sample core (internal/mc) builds its
// forks' kernels from it.
type KernelView struct{ a *Analyzer }

// Analyzer returns the analyzer behind the view; nil for a zero view.
func (v KernelView) Analyzer() *Analyzer { return v.a }

// View returns a handle on the kernel's analyzer.
func (k *Kernel) View() KernelView { return KernelView{a: k.a} }

// NumNets returns the net count the kernel times.
func (k *Kernel) NumNets() int { return len(k.snkPtr) - 1 }
