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

	shape atomic.Pointer[shape] // timing structure of RunInto and every kernel, built on first use
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

// Report is the result of one timing analysis: the Frame summary
// (clock, critical path, worst slack, per-stage lanes, violators) plus
// the per-net arrivals and every constrained endpoint.
type Report struct {
	Frame
	Arrival   []float64 // per net, at the driver output pin
	Endpoints []Endpoint
}

// Run performs a full timing analysis at the given clock period.
// scale is a per-instance delay multiplier (variation x voltage); nil
// means nominal. The returned report may be reused via RunInto.
func (a *Analyzer) Run(clockPS float64, scale []float64) *Report {
	rep := &Report{}
	a.RunInto(rep, clockPS, scale)
	return rep
}

// RunInto is Run with caller-owned storage, for repeated analyses. It
// runs the kernels' arrival walk and endpoint scan, so the report's
// frame is bit for bit what Kernel.RunFrame computes.
func (a *Analyzer) RunInto(rep *Report, clockPS float64, scale []float64) {
	s := a.timingShape()
	if scale == nil {
		scale = s.ones
	}
	rep.Arrival = grow(rep.Arrival, a.NL.NumNets())
	s.propagate(rep.Arrival, scale)
	rep.Endpoints = rep.Endpoints[:0]
	s.endpoints(&rep.Frame, &rep.Endpoints, rep.Arrival, clockPS, scale)
}

// CriticalPath backtracks the worst path into the given endpoint and
// returns it startpoint-first.
func (a *Analyzer) CriticalPath(rep *Report, ep Endpoint, scale []float64) []PathStep {
	if scale == nil {
		scale = a.timingShape().ones
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
			DelayPS: a.baseDelay[drv] * scale[drv],
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
