// Package vexsim provides the behavioral side of the paper's
// validation flow: a cycle-accurate reference model of the VEX core's
// microarchitecture, behavioral single-cycle program and data memories
// (the paper models all memory devices behaviorally), a testbench that
// co-simulates the gate-level netlist against those memories, and the
// FIR filtering benchmark used for all power measurements.
package vexsim

import (
	"fmt"

	"vipipe/internal/isa"
	"vipipe/internal/vex"
)

// DMemWords is the data-memory size in words; addresses wrap.
const DMemWords = 1 << 12

// Machine is a cycle-accurate behavioral model of the pipeline built
// by internal/vex: 4 stages, decode-stage branch resolution with one
// wrong-path kill, a write-back read bypass in decode, and operand
// forwarding from the EX/WB register in execute. Running the same
// program on Machine and on the gate-level netlist must produce
// identical architectural state cycle by cycle.
type Machine struct {
	Cfg  vex.Config
	Prog [][]uint32 // encoded bundles, one []uint32 per PC
	DMem []uint64   // word-addressed data memory

	PC      uint64
	RF      []uint64
	fd      fdLatch
	de      []deLatch
	ew      []ewLatch
	devalid bool

	cycle uint64
}

type fdLatch struct {
	valid bool
	pc    uint64
	ops   []uint32
}

type deLatch struct {
	in         isa.Instr
	valA, valB uint64
	memOff     uint64
}

type ewLatch struct {
	result, addr, stData uint64
	rd                   uint8
	writes               bool
	isLoad, isStore      bool
}

// NewMachine creates a reference machine executing prog (encoded
// bundles) with the given initial data memory (copied; may be nil).
//
//lint:ignore deadcode reference machine the co-simulation and fuzz tests compare the netlist against (coSim, TestRandomProgramCoSim)
func NewMachine(cfg vex.Config, prog [][]uint32, dmem []uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prog) > 1<<cfg.PCBits {
		return nil, fmt.Errorf("vexsim: program of %d bundles exceeds 2^%d", len(prog), cfg.PCBits)
	}
	for i, bnd := range prog {
		if len(bnd) != cfg.Slots {
			return nil, fmt.Errorf("vexsim: bundle %d has %d ops, want %d", i, len(bnd), cfg.Slots)
		}
	}
	m := &Machine{
		Cfg:  cfg,
		Prog: prog,
		DMem: make([]uint64, DMemWords),
		RF:   make([]uint64, cfg.Regs),
		de:   make([]deLatch, cfg.Slots),
		ew:   make([]ewLatch, cfg.Slots),
		fd:   fdLatch{ops: make([]uint32, cfg.Slots)},
	}
	copy(m.DMem, dmem)
	return m, nil
}

func (m *Machine) mask() uint64   { return 1<<uint(m.Cfg.Width) - 1 }
func (m *Machine) pcMask() uint64 { return 1<<uint(m.Cfg.PCBits) - 1 }

// immS returns the hardware's view of a sign-extended immediate: the
// netlist truncates or sign-extends the field to the data width.
func (m *Machine) immS(v int32) uint64 { return uint64(int64(v)) & m.mask() }

// Cycle returns the number of executed cycles.
//
//lint:ignore deadcode reference machine: TestMachineRunsPastProgramEnd
func (m *Machine) Cycle() uint64 { return m.cycle }

// fetchWord returns the program word at pc for one slot; beyond the
// program it returns encoded NOPs (matching a zero-filled program
// memory, since opcode 0 is NOP).
func (m *Machine) fetchWord(pc uint64, slot int) uint32 {
	if int(pc) < len(m.Prog) {
		return m.Prog[pc][slot]
	}
	return 0
}

// Step advances the machine one clock cycle.
func (m *Machine) Step() {
	cfg := m.Cfg
	mask := m.mask()

	// ---- Write-back stage (uses old EW latch). ----
	// Stores commit first in slot order, then loads observe memory,
	// matching the testbench protocol for the netlist.
	for s := 0; s < cfg.Slots; s++ {
		if m.ew[s].isStore {
			m.DMem[m.ew[s].addr%DMemWords] = m.ew[s].stData
		}
	}
	wbData := make([]uint64, cfg.Slots)
	for s := 0; s < cfg.Slots; s++ {
		if m.ew[s].isLoad {
			wbData[s] = m.DMem[m.ew[s].addr%DMemWords] & mask
		} else {
			wbData[s] = m.ew[s].result
		}
	}

	// ---- Execute stage (old DE latch, forwarding from old EW). ----
	newEW := make([]ewLatch, cfg.Slots)
	for s := 0; s < cfg.Slots; s++ {
		d := &m.de[s]
		valA := m.forward(d.valA, uint8(d.in.Ra)&uint8(cfg.Regs-1), wbData)
		valB := d.valB
		if d.in.Op.ReadsRb() {
			valB = m.forward(d.valB, uint8(d.in.Rb)&uint8(cfg.Regs-1), wbData)
		}
		r := &newEW[s]
		r.rd = d.in.Rd & uint8(cfg.Regs-1)
		r.writes = m.devalid && d.in.Op.WritesReg() && r.rd != 0
		r.isLoad = m.devalid && d.in.Op == isa.LD
		r.isStore = m.devalid && d.in.Op == isa.ST
		r.addr = (valA + d.memOff) & mask
		r.stData = valB
		r.result = m.alu(d.in.Op, valA, valB)
	}

	// ---- Decode stage (old FD latch, bypass from write-back). ----
	newDE := make([]deLatch, cfg.Slots)
	newDEValid := m.fd.valid
	branchTaken := false
	var branchTarget uint64
	for s := 0; s < cfg.Slots; s++ {
		in := isa.Decode(m.fd.ops[s])
		d := &newDE[s]
		d.in = in
		ra := in.Ra & uint8(cfg.Regs-1)
		rb := in.Rb & uint8(cfg.Regs-1)
		d.valA = m.bypassRead(ra, wbData)
		switch {
		case in.Op.ReadsRb():
			d.valB = m.bypassRead(rb, wbData)
		case in.Op == isa.ADDI:
			d.valB = m.immS(in.Imm16)
		case in.Op == isa.ANDI || in.Op == isa.ORI:
			d.valB = uint64(uint32(in.Imm16)&0xFFFF) & mask
		}
		d.memOff = m.immS(in.Imm12)
		if s == 0 && m.fd.valid && in.Op.IsBranch() {
			cond := d.valA
			take := in.Op == isa.GOTO ||
				(in.Op == isa.BEQZ && cond == 0) ||
				(in.Op == isa.BNEZ && cond != 0)
			if take {
				branchTaken = true
				branchTarget = (m.fd.pc + uint64(int64(in.Imm16))) & m.pcMask()
			}
		}
	}

	// ---- Fetch stage. ----
	newFD := fdLatch{valid: !branchTaken, pc: m.PC, ops: make([]uint32, cfg.Slots)}
	for s := 0; s < cfg.Slots; s++ {
		newFD.ops[s] = m.fetchWord(m.PC, s)
	}
	newPC := (m.PC + 1) & m.pcMask()
	if branchTaken {
		newPC = branchTarget
	}

	// ---- Commit: register-file writes, then latch updates. ----
	for s := 0; s < cfg.Slots; s++ {
		if m.ew[s].writes {
			m.RF[m.ew[s].rd] = wbData[s]
		}
	}
	m.RF[0] = 0
	m.ew = newEW
	m.de = newDE
	m.devalid = newDEValid
	m.fd = newFD
	m.PC = newPC
	m.cycle++
}

// Run executes n cycles.
//
//lint:ignore deadcode reference machine: coSim and the fuzz co-simulation tests
func (m *Machine) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// forward applies the execute-stage forwarding network: the newest
// write-back slot writing reg overrides the latched operand.
func (m *Machine) forward(latched uint64, reg uint8, wbData []uint64) uint64 {
	v := latched
	for p := 0; p < m.Cfg.Slots; p++ {
		if m.ew[p].writes && m.ew[p].rd == reg {
			v = wbData[p]
		}
	}
	return v
}

// bypassRead reads a register in decode with the write-back bypass.
func (m *Machine) bypassRead(reg uint8, wbData []uint64) uint64 {
	v := m.RF[reg]
	if reg == 0 {
		v = 0
	}
	for p := 0; p < m.Cfg.Slots; p++ {
		if m.ew[p].writes && m.ew[p].rd == reg {
			v = wbData[p]
		}
	}
	return v
}

// alu computes the execute-stage result for op.
func (m *Machine) alu(op isa.Op, a, bv uint64) uint64 {
	w := uint(m.Cfg.Width)
	mask := m.mask()
	amt := bv & uint64(m.Cfg.Width-1)
	signBit := uint64(1) << (w - 1)
	toSigned := func(x uint64) int64 {
		if x&signBit != 0 {
			return int64(x | ^mask)
		}
		return int64(x)
	}
	switch op {
	case isa.ADD, isa.ADDI:
		return (a + bv) & mask
	case isa.SUB:
		return (a - bv) & mask
	case isa.AND, isa.ANDI:
		return a & bv
	case isa.OR, isa.ORI:
		return a | bv
	case isa.XOR:
		return a ^ bv
	case isa.SLL:
		return (a << amt) & mask
	case isa.SRL:
		return (a & mask) >> amt
	case isa.SRA:
		return uint64(toSigned(a)>>amt) & mask
	case isa.CMPEQ:
		if a == bv {
			return 1
		}
		return 0
	case isa.CMPLT:
		if toSigned(a) < toSigned(bv) {
			return 1
		}
		return 0
	case isa.CMPLTU:
		if a < bv {
			return 1
		}
		return 0
	case isa.MPYLU:
		half := uint64(1)<<(w/2) - 1
		return (a & half) * (bv & half) & mask
	default:
		return 0
	}
}
