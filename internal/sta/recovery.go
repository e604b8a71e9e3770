package sta

import (
	"context"
	"math"

	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
)

// RecoveryTargets gives, per pipeline stage, the fraction of the clock
// period that slack recovery relaxes that stage's paths to.
//
// A commercial performance-driven flow, once the critical stage meets
// the clock, spends the remaining slack of the other stages on power
// (downsizing, high-Vt swap), leaving every stage close to the
// constraint — the "slack wall" visible in the paper's Fig. 3, where
// the execute, decode and write-back distributions all sit within a
// few percent of the clock. Our structural netlist has no synthesis
// sizing loop, so this pass emulates it: cells off the critical stage
// are derated (slowed) until their stage approaches its target. The
// default targets are calibrated to the relative stage positions of
// the paper's Fig. 3 (EX most critical, then DC, then WB).
type RecoveryTargets map[netlist.Stage]float64

// DefaultRecoveryTargets mirrors Fig. 3's stage ordering.
func DefaultRecoveryTargets() RecoveryTargets {
	// The per-stage gaps below the execute stage are wider than the
	// raw Fig. 3 spacing because the recovered wall puts hundreds of
	// near-critical paths in every stage, and the expected maximum
	// over them absorbs roughly one percent of headroom.
	return RecoveryTargets{
		netlist.StageFetch:     0.90,
		netlist.StageDecode:    0.965,
		netlist.StageExecute:   1.00,
		netlist.StageWriteback: 0.94,
		netlist.StageNone:      0.90,
	}
}

// SlackRecovery computes a per-instance derate vector (>= 1) that
// slows non-critical logic until each stage sits near target * clock,
// emulating post-synthesis power recovery. The vector composes
// multiplicatively with variation and voltage scales. maxDerate caps
// the per-cell slowdown (bounding how much a sizing/Vt swap could
// plausibly slow a cell); iterations bounds the relaxation loop.
func (a *Analyzer) SlackRecovery(clockPS float64, targets RecoveryTargets, maxDerate float64, iterations int) []float64 {
	derate, _ := a.SlackRecoveryCtx(context.Background(), clockPS, targets, maxDerate, iterations)
	return derate
}

// SlackRecoveryCtx is SlackRecovery with cancellation: the incremental
// re-analysis loop (one full timing run plus a backward required-time
// pass per iteration) checks ctx between iterations and returns the
// derate vector relaxed so far together with an error matching
// flowerr.ErrCancelled when the context expires mid-loop.
func (a *Analyzer) SlackRecoveryCtx(ctx context.Context, clockPS float64, targets RecoveryTargets, maxDerate float64, iterations int) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := a.NL.NumCells()
	derate := make([]float64, n)
	for i := range derate {
		derate[i] = 1
	}
	if iterations <= 0 {
		iterations = 20
	}
	if maxDerate < 1 {
		maxDerate = 1
	}
	tau := func(ep *Endpoint) float64 {
		f, ok := targets[ep.Stage]
		if !ok {
			f = 1
		}
		return f * clockPS
	}
	rep := &Report{}
	req := make([]float64, a.NL.NumNets())
	const tolPS = 2.0
	for iter := 0; iter < iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return derate, flowerr.Cancelledf("sta: slack recovery cancelled after %d/%d iterations: %w", iter, iterations, err)
		}
		a.RunInto(rep, clockPS, derate)
		a.requiredTimesInto(req, rep, derate, tau)
		changed := false
		for i := range a.NL.Insts {
			// Registers are never resized: derating a flop would
			// inflate the setup cost of paths into it, which the
			// output-slack growth rule below cannot see.
			if a.NL.Cell(i).IsTie() || a.NL.Cell(i).Sequential {
				continue
			}
			out := a.NL.Insts[i].Out
			arr := rep.Arrival[out]
			if math.IsInf(arr, -1) || math.IsInf(req[out], 1) {
				continue
			}
			s := req[out] - arr
			switch {
			case s > tolPS:
				// Grow toward the wall, proportionally to the
				// remaining headroom on the worst path through
				// this cell; damped because every cell on the
				// path grows in the same iteration.
				f := 1 + 0.6*s/math.Max(arr, 100)
				if f > 1.5 {
					f = 1.5
				}
				nd := derate[i] * f
				if nd > maxDerate {
					nd = maxDerate
				}
				if nd != derate[i] {
					derate[i] = nd
					changed = true
				}
			case s < -tolPS && derate[i] > 1:
				// Overshoot: back off, never below nominal.
				f := 1 + s/math.Max(arr, 100)
				if f < 0.7 {
					f = 0.7
				}
				nd := derate[i] * f
				if nd < 1 {
					nd = 1
				}
				derate[i] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return derate, nil
}

// requiredTimesInto runs the backward pass: the latest time each net
// may switch such that every downstream endpoint meets its target. tau
// gives the absolute target per endpoint. req is caller-owned storage
// with NumNets entries, hoisted out of the relaxation loop; it is
// fully reinitialized, so reuse returns the same bits a fresh buffer
// would.
func (a *Analyzer) requiredTimesInto(req []float64, rep *Report, scale []float64, tau func(*Endpoint) float64) {
	nl := a.NL
	if scale == nil {
		scale = a.timingShape().ones
	}
	for i := range req {
		req[i] = math.Inf(1)
	}
	for k := range rep.Endpoints {
		ep := &rep.Endpoints[k]
		t := tau(ep)
		if ep.Inst != netlist.NoInst {
			t -= a.setup[ep.Inst] * scale[ep.Inst]
		}
		t -= a.wire[ep.Net]
		if t < req[ep.Net] {
			req[ep.Net] = t
		}
	}
	// Walk combinational cells in reverse topological order.
	for k := len(a.order) - 1; k >= 0; k-- {
		i := a.order[k]
		inst := &nl.Insts[i]
		r := req[inst.Out]
		if math.IsInf(r, 1) {
			continue
		}
		need := r - a.baseDelay[i]*scale[i]
		for _, n := range inst.Inputs {
			if t := need - a.wire[n]; t < req[n] {
				req[n] = t
			}
		}
	}
}
