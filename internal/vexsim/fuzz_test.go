package vexsim

import (
	"testing"

	"vipipe/internal/isa"
	"vipipe/internal/stats"
	"vipipe/internal/vex"
)

// randomProgram generates a random but architecturally legal program:
// any mix of ALU, immediate, multiply and memory operations (all
// read-after-write hazards are forwarded in hardware), plus optional
// branches whose condition register was written at least two bundles
// earlier (the core's exposed-pipeline rule).
func randomProgram(cfg vex.Config, rng *stats.Stream, bundles int, withBranches bool) [][]uint32 {
	ops := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL,
		isa.SRA, isa.CMPEQ, isa.CMPLT, isa.CMPLTU, isa.MPYLU,
		isa.ADDI, isa.ANDI, isa.ORI, isa.LD, isa.ST, isa.NOP,
	}
	reg := func() uint8 { return uint8(rng.Intn(cfg.Regs)) }
	// lastWrite[r] = bundle index of the most recent write to r.
	lastWrite := make([]int, cfg.Regs)
	for i := range lastWrite {
		lastWrite[i] = -10
	}
	var prog [][]uint32
	for bi := 0; bi < bundles; bi++ {
		bundle := make(isa.Bundle, cfg.Slots)
		for s := 0; s < cfg.Slots; s++ {
			op := ops[rng.Intn(len(ops))]
			in := isa.Instr{Op: op, Rd: reg(), Ra: reg(), Rb: reg()}
			switch {
			case op.UsesImm16():
				in.Imm16 = int32(rng.Intn(1<<16) - 1<<15)
			case op.UsesImm12():
				in.Imm12 = int32(rng.Intn(1<<12) - 1<<11)
			}
			bundle[s] = in
			if op.WritesReg() {
				lastWrite[in.Rd&uint8(cfg.Regs-1)] = bi
			}
		}
		// Occasionally replace slot 0 with a short forward branch
		// over 1-2 bundles, condition produced >= 2 bundles earlier.
		if withBranches && rng.Intn(4) == 0 && bi+3 < bundles {
			cond := uint8(0)
			for r := 1; r < cfg.Regs; r++ {
				if lastWrite[r] <= bi-2 {
					cond = uint8(r)
					break
				}
			}
			op := isa.BEQZ
			if rng.Intn(2) == 0 {
				op = isa.BNEZ
			}
			bundle[0] = isa.Instr{Op: op, Ra: cond, Imm16: int32(1 + rng.Intn(2))}
		}
		prog = append(prog, isa.EncodeBundle(bundle, cfg.Slots))
	}
	// Halt: spin forever at the end.
	halt := make(isa.Bundle, cfg.Slots)
	halt[0] = isa.Instr{Op: isa.GOTO, Imm16: 0}
	prog = append(prog, isa.EncodeBundle(halt, cfg.Slots))
	return prog
}

// TestRandomProgramCoSim fuzzes the gate-level core against the
// reference machine with random straight-line programs.
func TestRandomProgramCoSim(t *testing.T) {
	core := smallCore(t)
	for trial := 0; trial < 6; trial++ {
		rng := stats.DeriveStream(1000+int64(trial), "fuzz")
		prog := randomProgram(core.Cfg, rng, 20, false)
		dmem := make([]uint64, 64)
		for i := range dmem {
			dmem[i] = uint64(rng.Intn(256))
		}
		m, err := NewMachine(core.Cfg, prog, dmem)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewTestbench(core, prog, dmem)
		if err != nil {
			t.Fatal(err)
		}
		cycles := len(prog) + 8
		m.Run(cycles)
		run(t, tb, cycles)
		for r := 0; r < core.Cfg.Regs; r++ {
			if got, want := reg(tb, r), m.RF[r]; got != want {
				t.Fatalf("trial %d: r%d netlist=%#x reference=%#x", trial, r, got, want)
			}
		}
		for a := 0; a < 256; a++ {
			if tb.DMem[a] != m.DMem[a] {
				t.Fatalf("trial %d: dmem[%d] netlist=%#x reference=%#x", trial, a, tb.DMem[a], m.DMem[a])
			}
		}
	}
}

// TestRandomBranchyProgramCoSim adds hazard-safe branches to the fuzz.
func TestRandomBranchyProgramCoSim(t *testing.T) {
	core := smallCore(t)
	for trial := 0; trial < 6; trial++ {
		rng := stats.DeriveStream(2000+int64(trial), "fuzz-br")
		prog := randomProgram(core.Cfg, rng, 24, true)
		m, err := NewMachine(core.Cfg, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewTestbench(core, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		cycles := 2*len(prog) + 8
		m.Run(cycles)
		run(t, tb, cycles)
		if m.PC != tb.Sim.Word(core.PCOut) {
			// PC comparison needs a settle for the netlist.
			tb.Sim.Eval()
		}
		for r := 0; r < core.Cfg.Regs; r++ {
			if got, want := reg(tb, r), m.RF[r]; got != want {
				t.Fatalf("trial %d: r%d netlist=%#x reference=%#x", trial, r, got, want)
			}
		}
	}
}

// TestMemoryAddressWraparound exercises addresses beyond the data
// memory size: both models must wrap identically.
func TestMemoryAddressWraparound(t *testing.T) {
	core := smallCore(t)
	// 8-bit addresses: 0xF8 + 12 wraps mod 256 and mod DMemWords.
	src := `
  addi $r1, $r0, 0xF8 ; addi $r2, $r0, 0x3C
  st $r2, 11($r1) ; nop
  ld $r3, 11($r1) ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 16)
	if m.RF[3] != 0x3C {
		t.Errorf("wraparound load = %#x, want 0x3C", m.RF[3])
	}
	addr := (0xF8 + 11) & 0xFF
	if m.DMem[addr] != 0x3C {
		t.Errorf("dmem[%#x] = %#x", addr, m.DMem[addr])
	}
}

// TestBranchToSelfHalts verifies the canonical halt idiom is stable.
func TestBranchToSelfHalts(t *testing.T) {
	core := smallCore(t)
	prog := mustAssemble(t, core.Cfg, "addi $r1, $r0, 9 ; nop\nhalt: goto halt")
	m, tb := coSim(t, core, prog, nil, 40)
	if m.RF[1] != 9 {
		t.Errorf("r1 = %d", m.RF[1])
	}
	// The PC must be parked at the halt bundle (or its kill shadow).
	tb.Sim.Eval()
	pc := tb.Sim.Word(core.PCOut)
	if pc > 2 {
		t.Errorf("PC = %d, should be parked at the halt loop", pc)
	}
}
