// Package gsim is a deterministic cycle-based gate-level logic
// simulator. It substitutes for the paper's Modelsim simulation step:
// it executes a netlist cycle by cycle and records per-net toggle
// counts, which the power analysis back-annotates as switching
// activity (the paper's "HDL simulation with switching activity
// back-annotation").
//
// The simulator is zero-delay and two-phase: at every cycle all
// combinational logic is evaluated in topological order from the
// current primary inputs and flip-flop outputs, then all flip-flops
// capture their D inputs simultaneously. Glitch power is therefore not
// modeled, matching the usual cycle-accurate activity-estimation
// methodology.
package gsim

import (
	"context"
	"fmt"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/obs"
)

// Simulator holds the evaluation state of one netlist. New flattens
// the netlist once: the combinational cells into arrays in topological
// order (kind, output net, input nets), the flip-flops into their Q
// and D nets. The cycle loop walks only these arrays.
type Simulator struct {
	kind []cell.Kind             // per comb cell, topological order
	in   [][cell.MaxInputs]int32 // input nets per comb cell, pin order
	out  []int32                 // output net per comb cell
	q, d []int32                 // Q and D net per flip-flop
	vals []bool                  // current value per net

	state []bool // captured Q value per flip-flop

	toggles []uint64 // per-net toggle count
	prev    []bool   // net values at the end of the previous Step
	cycles  uint64
	primed  bool // first Step establishes the reference values
}

// New builds a simulator for nl. All state starts at logic 0. It
// returns an error for a combinational cycle, for an instance whose
// pin count differs from its library cell's, and for a cell wider
// than cell.MaxInputs.
func New(nl *netlist.Netlist) (*Simulator, error) {
	order, err := nl.Levelize()
	if err != nil {
		return nil, fmt.Errorf("gsim: %w", err)
	}
	seqs := nl.Sequentials()
	s := &Simulator{
		kind:    make([]cell.Kind, len(order)),
		in:      make([][cell.MaxInputs]int32, len(order)),
		out:     make([]int32, len(order)),
		q:       make([]int32, len(seqs)),
		d:       make([]int32, len(seqs)),
		vals:    make([]bool, nl.NumNets()),
		state:   make([]bool, len(seqs)),
		toggles: make([]uint64, nl.NumNets()),
		prev:    make([]bool, nl.NumNets()),
	}
	for pos, id := range order {
		if err := checkPins(nl, id); err != nil {
			return nil, err
		}
		inst := &nl.Insts[id]
		s.kind[pos] = inst.Kind
		s.out[pos] = int32(inst.Out)
		for p, net := range inst.Inputs {
			s.in[pos][p] = int32(net)
		}
	}
	for k, id := range seqs {
		if err := checkPins(nl, id); err != nil {
			return nil, err
		}
		s.q[k] = int32(nl.Insts[id].Out)
		s.d[k] = int32(nl.Insts[id].Inputs[0])
	}
	return s, nil
}

// checkPins rejects an instance the flat arrays cannot hold: one wider
// than cell.MaxInputs, or one whose pin count differs from its cell's.
func checkPins(nl *netlist.Netlist, id int) error {
	inst, c := &nl.Insts[id], nl.Cell(id)
	if c.NumInputs > cell.MaxInputs {
		return flowerr.BadInputf("gsim: instance %s: cell %s has %d inputs, more than %d", inst.Name, c.Name, c.NumInputs, cell.MaxInputs)
	}
	if len(inst.Inputs) != c.NumInputs {
		return flowerr.BadInputf("gsim: instance %s: %d input pins, cell %s has %d", inst.Name, len(inst.Inputs), c.Name, c.NumInputs)
	}
	return nil
}

// Reset clears all flip-flop state, net values and activity counters.
func (s *Simulator) Reset() {
	clear(s.vals)
	clear(s.state)
	clear(s.toggles)
	clear(s.prev)
	s.cycles = 0
	s.primed = false
}

// SetPI drives a primary-input net for the next Step.
func (s *Simulator) SetPI(net int, v bool) { s.vals[net] = v }

// SetPIWord drives a primary-input bus with the low bits of v.
func (s *Simulator) SetPIWord(w netlist.Word, v uint64) {
	for i, n := range w {
		s.vals[n] = v>>uint(i)&1 == 1
	}
}

// Val returns the current value of a net (valid after Step or Eval).
func (s *Simulator) Val(net int) bool { return s.vals[net] }

// Word reads a bus as an unsigned integer.
func (s *Simulator) Word(w netlist.Word) uint64 {
	var v uint64
	for i, n := range w {
		if s.vals[n] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// PresentState puts each flip-flop's captured state on its Q net and
// evaluates no logic: afterwards every flop output reads what the next
// Eval or Step will see, while every other net keeps its value.
func (s *Simulator) PresentState() {
	vals, state := s.vals, s.state[:len(s.q)]
	for k, q := range s.q {
		vals[q] = state[k]
	}
}

// Eval propagates the current primary inputs and flip-flop outputs
// through the combinational logic without clocking the flops. Toggle
// counters are not advanced. It is the combinational-settling step
// used both by Step and by purely combinational testbenches.
func (s *Simulator) Eval() {
	s.PresentState()
	cell.EvalCells(s.kind, s.in, s.out, s.vals)
}

// Step runs one clock cycle: settle combinational logic, record
// toggles against the previous cycle's values, then clock all
// flip-flops. Drive primary inputs with SetPI before calling.
func (s *Simulator) Step() {
	s.Eval()
	vals := s.vals
	prev := s.prev[:len(vals)]
	if s.primed {
		toggles := s.toggles[:len(vals)]
		for i, v := range vals {
			toggles[i] += b2u(v != prev[i])
			prev[i] = v
		}
	} else {
		copy(prev, vals)
	}
	s.primed = true
	s.cycles++
	// Capture D inputs.
	state := s.state[:len(s.d)]
	for k, d := range s.d {
		state[k] = vals[d]
	}
}

// b2u is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run applies each vector (a PI-driving callback) for one cycle.
func (s *Simulator) Run(cycles int, drive func(cycle int, s *Simulator)) {
	_ = s.RunContext(context.Background(), cycles, drive)
}

// ctxCheckEvery is how many cycles pass between context polls during a
// cancellable run: cheap enough to be invisible, frequent enough that
// cancellation lands within microseconds on any realistic netlist.
const ctxCheckEvery = 64

// RunContext is Run with cancellation: the cycle loop polls ctx every
// ctxCheckEvery cycles and stops with an error matching
// flowerr.ErrCancelled when it expires. Activity accumulated up to the
// stopping cycle is retained, so a cancelled simulation still reports
// the toggles it observed.
func (s *Simulator) RunContext(ctx context.Context, cycles int, drive func(cycle int, s *Simulator)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "gsim.run")
	defer span.End()
	span.SetAttr("cycles", cycles)
	span.SetAttr("nets", len(s.vals))
	for c := 0; c < cycles; c++ {
		if c%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return flowerr.Cancelledf("gsim: cancelled at cycle %d/%d: %w", c, cycles, err)
			}
		}
		if drive != nil {
			drive(c, s)
		}
		s.Step()
	}
	return nil
}

// Cycles returns the number of Steps executed since the last Reset.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// Toggles returns the toggle count of a net.
func (s *Simulator) Toggles(net int) uint64 { return s.toggles[net] }

// Activity returns the per-cycle toggle rate of every net: the
// switching-activity vector consumed by the power model. Rates are
// relative to the number of completed cycle transitions (cycles-1).
func (s *Simulator) Activity() []float64 {
	act := make([]float64, len(s.toggles))
	if s.cycles < 2 {
		return act
	}
	denom := float64(s.cycles - 1)
	for i, t := range s.toggles {
		act[i] = float64(t) / denom
	}
	return act
}
