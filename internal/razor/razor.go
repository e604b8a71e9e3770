// Package razor models the post-silicon timing-sensing machinery of
// the paper (Section 4.4): Razor-style flip-flops with delayed shadow
// sampling are placed only on the endpoints that the Monte Carlo SSTA
// found can become critical under process variations ("we need to
// place razor-based sensing circuits only on the flip-flops fed by
// these signal paths, thus significantly reducing the overhead").
// After fabrication, the sensors' per-stage error flags identify the
// actual timing-violation scenario, which selects how many voltage
// islands to power at high Vdd.
package razor

import (
	"sort"

	"vipipe/internal/cell"
	"vipipe/internal/mc"
	"vipipe/internal/netlist"
	"vipipe/internal/sta"
)

// Plan lists the endpoints to equip with Razor flip-flops, grouped by
// pipeline stage.
type Plan struct {
	// ByStage maps each analyzed stage to the flop instances that
	// need sensing.
	ByStage map[netlist.Stage][]int
	// Sensors is the flattened, sorted instance list.
	Sensors []int
}

// DefaultBudget is the per-stage sensor budget: the paper found 12
// statistically-critical paths in the execute stage and sensored only
// those.
const DefaultBudget = 12

// NewPlan derives the sensor placement from a Monte Carlo result at
// the worst-case chip position (point A): per stage, the budget
// endpoints that were most often the stage-critical path get sensors.
// When a stage genuinely violates, its near-critical endpoints violate
// in groups (they share the post-synthesis slack wall), so a small
// sensored subset still flags the stage reliably. budget <= 0 sensors
// every candidate.
func NewPlan(nl *netlist.Netlist, res *mc.Result, budget int) *Plan {
	p := &Plan{ByStage: make(map[netlist.Stage][]int)}
	for _, st := range mc.PipelineStages {
		eps := res.CriticalEndpoints(nl, st)
		if budget > 0 && len(eps) > budget {
			eps = eps[:budget]
		}
		for _, er := range eps {
			p.ByStage[st] = append(p.ByStage[st], er.Inst)
			p.Sensors = append(p.Sensors, er.Inst)
		}
	}
	sort.Ints(p.Sensors)
	return p
}

// NumSensors returns the total sensor count.
func (p *Plan) NumSensors() int { return len(p.Sensors) }

// AreaOverheadUM2 returns the extra area of the plan: the per-sensor
// difference between a Razor flop and the plain flop it replaces.
func (p *Plan) AreaOverheadUM2(lib *cell.Library) float64 {
	d := lib.Cell(cell.RazorFF).AreaUM2 - lib.Cell(cell.DFF).AreaUM2
	return float64(len(p.Sensors)) * d
}

// Detection is the outcome of reading the sensors of one fabricated
// chip.
type Detection struct {
	Scenario int // number of flagged stages = islands to raise
	Flagged  map[netlist.Stage]bool
}

// Detect reads the sensors on one chip sample: an endpoint flags an
// error when its data arrival exceeds the clock period (the shadow
// latch catches the late transition). scale is the chip's
// per-instance delay factor (variation times derate). Only sensored
// endpoints are observable — exactly the hardware's view. The shadow
// sampling window is unbounded here; use DetectWindow to model a
// finite window.
func Detect(a *sta.Analyzer, plan *Plan, clockPS float64, scale []float64) Detection {
	return DetectWindow(a, plan, clockPS, 0, scale)
}

// DetectWindow models the finite shadow-latch sampling delay: a
// sensored endpoint raises its error flag only when the data arrival
// falls inside (clock, clock+windowPS] — a transition later than the
// window escapes the shadow latch too and is missed. The paper tunes
// this delay from the Monte Carlo range ("the value of such delays
// could be tuned based on the results of the Monte Carlo analysis").
// windowPS <= 0 means unbounded.
func DetectWindow(a *sta.Analyzer, plan *Plan, clockPS, windowPS float64, scale []float64) Detection {
	sensed := make(map[int]bool, len(plan.Sensors))
	for _, s := range plan.Sensors {
		sensed[s] = true
	}
	rep := a.Run(clockPS, scale)
	det := Detection{Flagged: make(map[netlist.Stage]bool)}
	for i := range rep.Endpoints {
		ep := &rep.Endpoints[i]
		if ep.Inst == netlist.NoInst || ep.Slack >= 0 || !sensed[ep.Inst] {
			continue
		}
		if windowPS > 0 && -ep.Slack > windowPS {
			continue // beyond the shadow window: missed
		}
		for _, st := range mc.PipelineStages {
			if ep.Stage == st {
				det.Flagged[st] = true
			}
		}
	}
	det.Scenario = len(det.Flagged)
	return det
}

// GroundTruth computes the true violating-stage set of a chip sample
// from every endpoint — the oracle the sensors approximate.
func GroundTruth(rep *sta.Report) Detection {
	return detectFrom(rep, func(netlist.Stage, int) bool { return true })
}

func detectFrom(rep *sta.Report, sensed func(netlist.Stage, int) bool) Detection {
	det := Detection{Flagged: make(map[netlist.Stage]bool)}
	for i := range rep.Endpoints {
		ep := &rep.Endpoints[i]
		if ep.Inst == netlist.NoInst || ep.Slack >= 0 {
			continue
		}
		for _, st := range mc.PipelineStages {
			if ep.Stage == st && sensed(st, ep.Inst) {
				det.Flagged[st] = true
			}
		}
	}
	det.Scenario = len(det.Flagged)
	return det
}

// Equal reports whether two detections agree.
func (d Detection) Equal(o Detection) bool {
	if d.Scenario != o.Scenario || len(d.Flagged) != len(o.Flagged) {
		return false
	}
	for st := range d.Flagged {
		if !o.Flagged[st] {
			return false
		}
	}
	return true
}
