package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// StageLane is one pipeline stage's endpoint summary inside a Frame:
// the structure-of-arrays counterpart of StageTiming.
type StageLane struct {
	Stage      netlist.Stage
	WorstSlack float64
	WorstArr   float64
	Endpoint   int // instance of the worst endpoint (netlist.NoInst for a PO)
	Endpoints  int
}

// Frame is the batch-friendly endpoint summary of one timing
// evaluation: fixed-size per-stage lanes instead of RunInto's
// per-sample map bookkeeping, so Monte Carlo loops can store sample
// outcomes in flat arrays. All float results replicate RunInto's
// addEndpoint expression sequence operation for operation and are
// bit-identical to the corresponding Report fields.
type Frame struct {
	ClockPS    float64
	CritPS     float64
	WorstSlack float64
	// Lanes is indexed by stage; Present marks stages that have at
	// least one constrained endpoint (structural: the set does not
	// vary with the scale vector).
	Lanes   [netlist.NumStages]StageLane
	Present [netlist.NumStages]bool
	// Violators lists the flop instances with negative slack, in
	// ascending instance order (primary outputs are excluded, exactly
	// like the violator scan over Report.Endpoints).
	Violators []int32
}

// RunFrame performs a full timing analysis and summarizes every
// endpoint into f. The per-stage worst slack/arrival/endpoint, the
// global worst slack and CritPS are bit-identical to the Report an
// Analyzer.RunInto call produces for the same clock and scale.
func (k *Kernel) RunFrame(f *Frame, clockPS float64, scale []float64) {
	k.propagate(scale)
	k.endpoints(f, clockPS, scale)
}

// endpoints evaluates every endpoint against the retained arrivals
// into f. Flop D pins are scanned in ascending instance order, then
// primary outputs — the same order RunInto appends Endpoints — so
// tie-breaking on equal slacks matches too.
func (k *Kernel) endpoints(f *Frame, clockPS float64, scale []float64) {
	arr := k.arr
	neg := math.Inf(-1)
	f.reset(clockPS)
	for _, i := range k.seq {
		need := k.required(clockPS, i, scale[i])
		n := k.in0[i]
		t := arr[n] + k.wire[n]
		if t == neg {
			continue // constant path: unconstrained
		}
		slack := need - t
		f.count(k.stage[i])
		f.observe(i, t, need, slack, k.stage[i])
		if slack < 0 {
			f.Violators = append(f.Violators, int32(i))
		}
	}
	for _, n := range k.pos {
		t := arr[n] + k.wire[n]
		if t == neg {
			continue
		}
		f.count(netlist.StageNone)
		f.observe(netlist.NoInst, t, clockPS, clockPS-t, netlist.StageNone)
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
// RunFrame.
type KernelView struct{ a *Analyzer }

// Analyzer returns the analyzer behind the view; nil for a zero view.
func (v KernelView) Analyzer() *Analyzer { return v.a }

// View returns a handle on the kernel's analyzer.
func (k *Kernel) View() KernelView { return KernelView{a: k.a} }

// NumNets returns the net count the kernel times.
func (k *Kernel) NumNets() int { return len(k.snkPtr) - 1 }
