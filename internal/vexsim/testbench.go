package vexsim

import (
	"context"
	"fmt"
	"slices"

	"vipipe/internal/flowerr"
	"vipipe/internal/gsim"
	"vipipe/internal/netlist"
	"vipipe/internal/vex"
)

// Testbench co-simulates a gate-level VEX core against behavioral
// single-cycle program and data memories — the substitute for the
// paper's Modelsim run. Each cycle it feeds the instruction bundle at
// the core's fetch address, services the data-memory interface
// (stores first in slot order, then loads), and clocks the netlist.
// Per-net switching activity accumulates in the underlying simulator.
type Testbench struct {
	Core *vex.Core
	Sim  *gsim.Simulator
	Prog [][]uint32
	DMem []uint64
}

// NewTestbench wires a built core to a program and an initial data
// memory image (copied; may be nil).
func NewTestbench(core *vex.Core, prog [][]uint32, dmem []uint64) (*Testbench, error) {
	if len(prog) > 1<<core.Cfg.PCBits {
		return nil, fmt.Errorf("vexsim: program of %d bundles exceeds 2^%d", len(prog), core.Cfg.PCBits)
	}
	for i, bnd := range prog {
		if len(bnd) != core.Cfg.Slots {
			return nil, fmt.Errorf("vexsim: bundle %d has %d ops, want %d", i, len(bnd), core.Cfg.Slots)
		}
	}
	if err := checkRegisteredInterface(core); err != nil {
		return nil, err
	}
	sim, err := gsim.New(core.NL)
	if err != nil {
		return nil, err
	}
	tb := &Testbench{Core: core, Sim: sim, Prog: prog, DMem: make([]uint64, DMemWords)}
	copy(tb.DMem, dmem)
	return tb, nil
}

// checkRegisteredInterface rejects a core whose memory-interface
// outputs (PC, addresses, store data, enables) are not all flip-flop
// outputs. Step reads them before the cycle's one combinational
// settle, so a combinational interface net would read a stale value.
func checkRegisteredInterface(core *vex.Core) error {
	nl := core.NL
	buses := append([]netlist.Word{core.PCOut, core.StEnOut, core.LdEnOut}, core.AddrOut...)
	for _, n := range slices.Concat(append(buses, core.StDataOut...)...) {
		if n < 0 || n >= nl.NumNets() {
			return flowerr.BadInputf("vexsim: memory-interface net %d out of range", n)
		}
		if drv := nl.Nets[n].Driver; drv == netlist.NoInst || !nl.IsSequential(drv) {
			return flowerr.BadInputf("vexsim: memory-interface net %s has no flip-flop driver", nl.Nets[n].Name)
		}
	}
	return nil
}

// Step runs one clock cycle of the netlist with memory servicing.
func (tb *Testbench) Step() {
	core, s := tb.Core, tb.Sim
	mask := uint64(1)<<uint(core.Cfg.Width) - 1

	// The memory-interface outputs (PC, addresses, enables) are flop
	// outputs (checkRegisteredInterface), so presenting the flops'
	// state is enough to read them: the cycle's one combinational
	// settle is the one inside s.Step.
	s.PresentState()

	// Fetch service: program word at PC, NOPs beyond the program.
	pc := s.Word(core.PCOut)
	for slot, iw := range core.InstrIn {
		var w uint64
		if int(pc) < len(tb.Prog) {
			w = uint64(tb.Prog[pc][slot])
		}
		s.SetPIWord(iw, w)
	}

	// Data-memory service: stores commit first in slot order, then
	// loads observe the updated memory (same rule as the reference
	// machine).
	for slot := range core.StEnOut {
		if s.Val(core.StEnOut[slot]) {
			addr := s.Word(core.AddrOut[slot]) % DMemWords
			tb.DMem[addr] = s.Word(core.StDataOut[slot]) & mask
		}
	}
	for slot := range core.LdEnOut {
		var data uint64
		if s.Val(core.LdEnOut[slot]) {
			data = tb.DMem[s.Word(core.AddrOut[slot])%DMemWords] & mask
		}
		s.SetPIWord(core.LoadData[slot], data)
	}

	s.Step()
}

// Run executes n cycles.
func (tb *Testbench) Run(n int) {
	_ = tb.RunContext(context.Background(), n)
}

// RunContext executes up to n cycles, polling ctx every 64 cycles and
// stopping with an error matching flowerr.ErrCancelled when it
// expires. Memory state and switching activity reflect the cycles run.
func (tb *Testbench) RunContext(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return flowerr.Cancelledf("vexsim: cancelled at cycle %d/%d: %w", i, n, err)
			}
		}
		tb.Step()
	}
	return nil
}

// Reg reads architectural register r from the netlist state.
func (tb *Testbench) Reg(r int) uint64 {
	tb.Sim.Eval()
	return tb.Sim.Word(tb.Core.RegQ[r])
}

// Activity returns the per-net switching activity collected so far.
func (tb *Testbench) Activity() []float64 { return tb.Sim.Activity() }
