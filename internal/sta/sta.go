// Package sta implements graph-based static timing analysis over a
// placed netlist: the substitute for PrimeTime in the paper's flow.
//
// Delay model: each combinational cell contributes a load-dependent
// delay (intrinsic + drive * load), where the load is the sum of sink
// input capacitances plus placement-derived wire capacitance; each net
// adds a repeatered-wire delay proportional to its half-perimeter
// wirelength. Flip-flops launch at clk-to-Q and capture with a setup
// margin. A per-instance multiplicative scale factor — the product of
// the process-variation factor (paper Eq. 3) and the supply-voltage
// factor — is applied to every cell delay, exactly like the paper's
// SDF-rewriting parser; wire delays are left unscaled ("we ignore
// variation in wires").
package sta

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
)

// Analyzer caches the placement-dependent loads and the topological
// order so that repeated analyses (Monte Carlo) only recompute
// arrivals.
type Analyzer struct {
	NL *netlist.Netlist
	PL *place.Placement

	order     []int     // topological order of combinational cells
	baseDelay []float64 // nominal cell delay per instance (comb: in->out, ff: clk->Q)
	setup     []float64 // nominal setup time per instance (flops only)
	wire      []float64 // wire delay per net

	shape atomic.Pointer[shape] // kernel structure, built by the first NewKernel
}

// New prepares an analyzer for a placed netlist.
func New(nl *netlist.Netlist, pl *place.Placement) (*Analyzer, error) {
	if pl.NL != nl {
		return nil, flowerr.BadInputf("sta: placement belongs to a different netlist")
	}
	if len(pl.X) != nl.NumCells() {
		return nil, flowerr.BadInputf("sta: placement covers %d of %d cells", len(pl.X), nl.NumCells())
	}
	order, err := nl.Levelize()
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	a := &Analyzer{
		NL:        nl,
		PL:        pl,
		order:     order,
		baseDelay: make([]float64, nl.NumCells()),
		setup:     make([]float64, nl.NumCells()),
		wire:      make([]float64, nl.NumNets()),
	}
	a.characterize()
	return a, nil
}

// characterize computes nominal per-cell delays and per-net wire
// delays from the placement.
func (a *Analyzer) characterize() {
	tech := a.NL.Lib.Tech
	// Net loads: sink pin caps + wire cap.
	loadFF := make([]float64, a.NL.NumNets())
	for n := range a.NL.Nets {
		hpwl := a.PL.NetHPWL(n)
		load := tech.WireCapFFPerUM * hpwl
		for _, s := range a.NL.Nets[n].Sinks {
			load += a.NL.Cell(s.Inst).InputCapFF
		}
		loadFF[n] = load
		a.wire[n] = tech.WireDelayPSPerUM * hpwl
	}
	for i := range a.NL.Insts {
		c := a.NL.Cell(i)
		load := loadFF[a.NL.Insts[i].Out]
		if c.Sequential {
			a.baseDelay[i] = c.ClkQPS + c.DrivePSPerFF*load
			a.setup[i] = c.SetupPS
		} else {
			a.baseDelay[i] = c.IntrinsicPS + c.DrivePSPerFF*load
		}
	}
}

// BaseDelay returns the nominal (scale = 1) delay of instance i.
func (a *Analyzer) BaseDelay(i int) float64 { return a.baseDelay[i] }

// SetupTime returns the nominal (scale = 1) setup time of instance i;
// zero for a combinational cell.
func (a *Analyzer) SetupTime(i int) float64 { return a.setup[i] }

// WireDelay returns the wire delay of net n.
func (a *Analyzer) WireDelay(n int) float64 { return a.wire[n] }

// Refresh recomputes loads and wire delays after placement or netlist
// edits (e.g. level-shifter insertion). The caller must have extended
// the placement first.
func (a *Analyzer) Refresh() error {
	order, err := a.NL.Levelize()
	if err != nil {
		return err
	}
	a.order = order
	a.baseDelay = make([]float64, a.NL.NumCells())
	a.setup = make([]float64, a.NL.NumCells())
	a.wire = make([]float64, a.NL.NumNets())
	a.characterize()
	a.shape.Store(nil)
	return nil
}

// Endpoint is a timing endpoint: a flip-flop data pin or a primary
// output.
type Endpoint struct {
	Inst    int           // flop instance, or netlist.NoInst for a PO
	Net     int           // the captured net
	Stage   netlist.Stage // pipeline stage of the endpoint
	Arrival float64       // data arrival time, ps
	Slack   float64       // against the report's clock period
}

// StageTiming summarizes one pipeline stage.
type StageTiming struct {
	Stage      netlist.Stage
	WorstSlack float64
	WorstArr   float64
	Endpoint   int // instance of the worst endpoint
	Endpoints  int
}

// Report is the result of one timing analysis.
type Report struct {
	ClockPS    float64
	Arrival    []float64 // per net, at the driver output pin
	Endpoints  []Endpoint
	WorstSlack float64
	CritPS     float64 // minimum feasible clock period (max arrival + setup)
	PerStage   map[netlist.Stage]*StageTiming
}

// Run performs a full timing analysis at the given clock period.
// scale is a per-instance delay multiplier (variation x voltage); nil
// means nominal. The returned report may be reused via RunInto.
func (a *Analyzer) Run(clockPS float64, scale []float64) *Report {
	rep := &Report{}
	a.RunInto(rep, clockPS, scale)
	return rep
}

// RunInto is Run with caller-owned storage, for Monte Carlo loops.
func (a *Analyzer) RunInto(rep *Report, clockPS float64, scale []float64) {
	nl := a.NL
	if cap(rep.Arrival) < nl.NumNets() {
		rep.Arrival = make([]float64, nl.NumNets())
	}
	rep.Arrival = rep.Arrival[:nl.NumNets()]
	rep.ClockPS = clockPS
	rep.Endpoints = rep.Endpoints[:0]
	arr := rep.Arrival

	sc := func(i int) float64 {
		if scale == nil {
			return 1
		}
		return scale[i]
	}

	// Startpoints.
	neg := math.Inf(-1)
	for n := range arr {
		arr[n] = neg
	}
	for _, n := range nl.PIs {
		arr[n] = 0
	}
	for i := range nl.Insts {
		c := nl.Cell(i)
		switch {
		case c.Sequential:
			arr[nl.Insts[i].Out] = a.baseDelay[i] * sc(i)
		case c.IsTie():
			// Constants never switch: they do not launch paths.
			arr[nl.Insts[i].Out] = neg
		}
	}

	// Propagate through combinational logic in topological order.
	for _, i := range a.order {
		inst := &nl.Insts[i]
		if nl.Cell(i).IsTie() {
			continue
		}
		worst := neg
		for _, n := range inst.Inputs {
			if t := arr[n] + a.wire[n]; t > worst {
				worst = t
			}
		}
		if worst == neg {
			arr[inst.Out] = neg
			continue
		}
		arr[inst.Out] = worst + a.baseDelay[i]*sc(i)
	}

	// Endpoints: flop D pins and primary outputs.
	rep.WorstSlack = math.Inf(1)
	rep.CritPS = 0
	rep.PerStage = make(map[netlist.Stage]*StageTiming)
	addEndpoint := func(inst, net int, stage netlist.Stage, need float64) {
		t := arr[net] + a.wire[net]
		if t == neg {
			return // constant path: unconstrained
		}
		slack := need - t
		ep := Endpoint{Inst: inst, Net: net, Stage: stage, Arrival: t, Slack: slack}
		rep.Endpoints = append(rep.Endpoints, ep)
		if slack < rep.WorstSlack {
			rep.WorstSlack = slack
		}
		if crit := t + (clockPS - need); crit > rep.CritPS {
			rep.CritPS = crit
		}
		st := rep.PerStage[stage]
		if st == nil {
			st = &StageTiming{Stage: stage, WorstSlack: math.Inf(1)}
			rep.PerStage[stage] = st
		}
		st.Endpoints++
		if slack < st.WorstSlack {
			st.WorstSlack = slack
			st.WorstArr = t
			st.Endpoint = inst
		}
	}
	for i := range nl.Insts {
		if nl.IsSequential(i) {
			need := clockPS - a.setup[i]*sc(i)
			addEndpoint(i, nl.Insts[i].Inputs[0], nl.Insts[i].Stage, need)
		}
	}
	for _, n := range nl.POs {
		addEndpoint(netlist.NoInst, n, netlist.StageNone, clockPS)
	}
}

// CriticalPath backtracks the worst path into the given endpoint and
// returns it startpoint-first.
func (a *Analyzer) CriticalPath(rep *Report, ep Endpoint, scale []float64) []PathStep {
	sc := func(i int) float64 {
		if scale == nil {
			return 1
		}
		return scale[i]
	}
	var rev []PathStep
	net := ep.Net
	for {
		drv := a.NL.Nets[net].Driver
		if drv == netlist.NoInst {
			rev = append(rev, PathStep{Inst: netlist.NoInst, Net: net, DelayPS: 0})
			break
		}
		inst := &a.NL.Insts[drv]
		rev = append(rev, PathStep{
			Inst:    drv,
			Net:     net,
			Unit:    inst.Unit,
			DelayPS: a.baseDelay[drv] * sc(drv),
			WirePS:  a.wire[net],
		})
		if a.NL.IsSequential(drv) || a.NL.Cell(drv).IsTie() {
			break
		}
		// Pick the latest-arriving input.
		best, bestT := -1, math.Inf(-1)
		for _, n := range inst.Inputs {
			if t := rep.Arrival[n] + a.wire[n]; t > bestT {
				bestT, best = t, n
			}
		}
		if best < 0 {
			break
		}
		net = best
	}
	// Reverse to startpoint-first order.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// PathStep is one cell traversal on a timing path.
type PathStep struct {
	Inst    int
	Net     int
	Unit    string
	DelayPS float64 // cell delay contribution
	WirePS  float64 // wire delay leaving the cell
}

// PathBreakdown sums path delay per functional sub-unit: the tool
// behind the paper's "critical path ... through a forwarding unit
// (22%) and an ALU (60%)" observation. Slot indices are collapsed so
// all ALUs report as "execute/alu".
func PathBreakdown(path []PathStep) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range path {
		key := "(input)"
		if s.Inst != netlist.NoInst {
			key = UnitKey(s.Unit)
		}
		out[key] += s.DelayPS + s.WirePS
	}
	return out
}

// UnitKey canonicalizes a unit tag for reporting: per-slot components
// ("slot0", "slot1", ...) are dropped and at most two path levels are
// kept, so "execute/slot2/alu" becomes "execute/alu".
func UnitKey(unit string) string {
	if unit == "" {
		return "(untagged)"
	}
	var parts []string
	for _, part := range strings.Split(unit, "/") {
		if strings.HasPrefix(part, "slot") && len(part) > 4 && part[4] >= '0' && part[4] <= '9' {
			continue
		}
		parts = append(parts, part)
		if len(parts) == 2 {
			break
		}
	}
	return strings.Join(parts, "/")
}

// FmaxMHz converts a critical path length in ps to a frequency.
func FmaxMHz(critPS float64) float64 {
	if critPS <= 0 {
		return math.Inf(1)
	}
	return 1e6 / critPS
}

// WorstEndpoints returns the n endpoints with the smallest slack,
// worst first: the head of a PrimeTime-style timing report.
func WorstEndpoints(rep *Report, n int) []Endpoint {
	eps := append([]Endpoint(nil), rep.Endpoints...)
	sort.Slice(eps, func(i, j int) bool { return eps[i].Slack < eps[j].Slack })
	if n > 0 && len(eps) > n {
		eps = eps[:n]
	}
	return eps
}

// ReportPaths renders the worst n timing paths in a compact textual
// report: endpoint, stage, slack, and the per-unit delay composition
// of each path.
func (a *Analyzer) ReportPaths(rep *Report, scale []float64, n int) string {
	var b strings.Builder
	for rank, ep := range WorstEndpoints(rep, n) {
		name := "(primary output)"
		if ep.Inst != netlist.NoInst {
			name = a.NL.Insts[ep.Inst].Name
		}
		fmt.Fprintf(&b, "#%d endpoint %s [%v]: arrival %.0fps slack %.0fps\n",
			rank+1, name, ep.Stage, ep.Arrival, ep.Slack)
		path := a.CriticalPath(rep, ep, scale)
		br := PathBreakdown(path)
		keys := make([]string, 0, len(br))
		for k := range br {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return br[keys[i]] > br[keys[j]] })
		for _, k := range keys {
			fmt.Fprintf(&b, "    %-20s %7.0fps\n", k, br[k])
		}
	}
	return b.String()
}
