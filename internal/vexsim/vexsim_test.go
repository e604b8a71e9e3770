package vexsim

import (
	"errors"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/isa"
	"vipipe/internal/netlist"
	"vipipe/internal/vex"
)

func mustAssemble(t *testing.T, cfg vex.Config, src string) [][]uint32 {
	t.Helper()
	bundles, err := isa.Assemble(src, cfg.Slots, cfg.Regs-1)
	if err != nil {
		t.Fatal(err)
	}
	prog := make([][]uint32, len(bundles))
	for i, b := range bundles {
		prog[i] = isa.EncodeBundle(b, cfg.Slots)
	}
	return prog
}

func smallCore(t *testing.T) *vex.Core {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	return core
}

// coSim runs the same program on the reference machine and the
// gate-level netlist and compares architectural state.
func coSim(t *testing.T, core *vex.Core, prog [][]uint32, dmem []uint64, cycles int) (*Machine, *Testbench) {
	t.Helper()
	m, err := NewMachine(core.Cfg, prog, dmem)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbench(core, prog, dmem)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(cycles)
	tb.Run(cycles)
	for r := 0; r < core.Cfg.Regs; r++ {
		if got, want := tb.Reg(r), m.RF[r]; got != want {
			t.Errorf("after %d cycles: r%d netlist=%#x reference=%#x", cycles, r, got, want)
		}
	}
	for a := 0; a < 64; a++ {
		if tb.DMem[a] != m.DMem[a] {
			t.Errorf("dmem[%d]: netlist=%#x reference=%#x", a, tb.DMem[a], m.DMem[a])
		}
	}
	return m, tb
}

func TestALUOpsCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  addi $r1, $r0, 100 ; addi $r2, $r0, 7
  addi $r3, $r0, -1  ; nop
  add $r4, $r1, $r2  ; sub $r5, $r1, $r2
  and $r6, $r1, $r3  ; or $r7, $r2, $r3
  xor $r1, $r1, $r2  ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 20)
	// Spot-check the reference semantics themselves (8-bit wrap).
	if m.RF[1] != (100^7)&0xFF || m.RF[4] != 107 || m.RF[5] != 93 {
		t.Errorf("reference values wrong: %v", m.RF)
	}
	if m.RF[6] != 100 || m.RF[7] != 0xFF {
		t.Errorf("logic ops wrong: r6=%#x r7=%#x", m.RF[6], m.RF[7])
	}
}

func TestShiftCmpMulCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  addi $r1, $r0, 0x96 ; addi $r2, $r0, 3
  nop
  sll $r3, $r1, $r2 ; srl $r4, $r1, $r2
  sra $r5, $r1, $r2 ; cmpeq $r6, $r1, $r1
  cmplt $r7, $r1, $r2 ; cmpltu $r1, $r2, $r2
  mpylu $r2, $r1, $r2 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 20)
	if m.RF[3] != 0xB0 || m.RF[4] != 0x12 || m.RF[5] != 0xF2 {
		t.Errorf("shifts wrong: %#x %#x %#x", m.RF[3], m.RF[4], m.RF[5])
	}
	if m.RF[6] != 1 || m.RF[7] != 1 {
		t.Errorf("compares wrong: r6=%d r7=%d (0x96 is negative as int8)", m.RF[6], m.RF[7])
	}
}

func TestForwardingDistance1And2CoSim(t *testing.T) {
	core := smallCore(t)
	// r1 produced, consumed immediately (EX forwarding) and one
	// bundle later (decode bypass).
	src := `
  addi $r1, $r0, 5 ; nop
  add $r2, $r1, $r1 ; nop
  add $r3, $r1, $r2 ; nop
  add $r4, $r2, $r3 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 16)
	if m.RF[2] != 10 || m.RF[3] != 15 || m.RF[4] != 25 {
		t.Errorf("forwarding chain wrong: r2=%d r3=%d r4=%d", m.RF[2], m.RF[3], m.RF[4])
	}
}

func TestLoadStoreAndLoadUseCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  addi $r1, $r0, 32 ; addi $r2, $r0, 0x5A
  st $r2, 0($r1) ; nop
  ld $r3, 0($r1) ; nop
  add $r4, $r3, $r3 ; nop
  st $r4, 1($r1) ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 20)
	if m.DMem[32] != 0x5A || m.DMem[33] != 0xB4 {
		t.Errorf("memory wrong: %#x %#x", m.DMem[32], m.DMem[33])
	}
	if m.RF[3] != 0x5A {
		t.Errorf("load result wrong: %#x", m.RF[3])
	}
}

func TestBranchTakenAndKillCoSim(t *testing.T) {
	core := smallCore(t)
	// The wrong-path bundle after a taken branch must not retire.
	src := `
  addi $r1, $r0, 1 ; nop
  nop
  bnez $r1, target ; nop
  addi $r2, $r0, 99 ; nop   # wrong path, must be killed
target:
  addi $r3, $r0, 42 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 20)
	if m.RF[2] != 0 {
		t.Errorf("wrong-path op retired: r2=%d", m.RF[2])
	}
	if m.RF[3] != 42 {
		t.Errorf("branch target not reached: r3=%d", m.RF[3])
	}
}

func TestBranchNotTakenCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  add $r1, $r0, $r0 ; nop
  nop
  bnez $r1, skipped ; nop
  addi $r2, $r0, 7 ; nop
skipped:
  addi $r3, $r2, 1 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 20)
	if m.RF[2] != 7 || m.RF[3] != 8 {
		t.Errorf("fall-through wrong: r2=%d r3=%d", m.RF[2], m.RF[3])
	}
}

func TestBackwardLoopCoSim(t *testing.T) {
	core := smallCore(t)
	// Sum 1..5 with a countdown loop; condition produced 2 bundles
	// before the branch (exposed-latency rule).
	src := `
  addi $r1, $r0, 5 ; add $r2, $r0, $r0
loop:
  add $r2, $r2, $r1 ; nop
  addi $r1, $r1, -1 ; nop
  nop
  bnez $r1, loop ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 60)
	if m.RF[2] != 15 {
		t.Errorf("loop sum = %d, want 15", m.RF[2])
	}
	if m.RF[1] != 0 {
		t.Errorf("counter = %d, want 0", m.RF[1])
	}
}

func TestR0IsAlwaysZeroCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  addi $r0, $r0, 55 ; addi $r1, $r0, 1
  nop
  add $r2, $r0, $r0 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 12)
	if m.RF[0] != 0 || m.RF[2] != 0 {
		t.Errorf("r0 corrupted: r0=%d r2=%d", m.RF[0], m.RF[2])
	}
	if m.RF[1] != 1 {
		t.Errorf("r1 = %d", m.RF[1])
	}
}

func TestMultiSlotWritePriorityCoSim(t *testing.T) {
	core := smallCore(t)
	// Both slots write r1 in the same bundle: the later slot wins,
	// in both the netlist and the reference.
	src := `
  addi $r1, $r0, 11 ; addi $r1, $r0, 22
  nop
  add $r2, $r1, $r0 ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 12)
	if m.RF[1] != 22 || m.RF[2] != 22 {
		t.Errorf("write priority wrong: r1=%d r2=%d, want 22/22", m.RF[1], m.RF[2])
	}
}

func TestStoreDataForwardingCoSim(t *testing.T) {
	core := smallCore(t)
	src := `
  addi $r1, $r0, 40 ; addi $r2, $r0, 9
  st $r2, 0($r1) ; nop
halt: goto halt
`
	prog := mustAssemble(t, core.Cfg, src)
	m, _ := coSim(t, core, prog, nil, 12)
	if m.DMem[40] != 9 {
		t.Errorf("store of forwarded data wrong: %d", m.DMem[40])
	}
}

func TestFIRSmallCoSim(t *testing.T) {
	core := smallCore(t)
	fir, err := NewFIR(core.Cfg, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, tb := coSim(t, core, fir.Prog, fir.DMem, fir.Cycles)
	if idx := fir.CheckResults(m.DMem); idx >= 0 {
		t.Errorf("reference FIR output wrong at %d: got %#x want %#x",
			idx, m.DMem[int(fir.YBase)+idx], fir.Expect[idx])
	}
	if idx := fir.CheckResults(tb.DMem); idx >= 0 {
		t.Errorf("netlist FIR output wrong at %d: got %#x want %#x",
			idx, tb.DMem[int(fir.YBase)+idx], fir.Expect[idx])
	}
	// The run must produce nonzero switching activity.
	act := tb.Activity()
	nonzero := 0
	for _, a := range act {
		if a > 0 {
			nonzero++
		}
	}
	if nonzero < len(act)/10 {
		t.Errorf("only %d/%d nets toggled", nonzero, len(act))
	}
}

func TestFIRDefaultConfigCoSim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size core co-simulation")
	}
	cfg := vex.DefaultConfig()
	core, err := vex.Build(cfg, cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	fir, err := NewFIR(cfg, 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, tb := coSim(t, core, fir.Prog, fir.DMem, fir.Cycles)
	if idx := fir.CheckResults(m.DMem); idx >= 0 {
		t.Errorf("reference FIR wrong at %d", idx)
	}
	if idx := fir.CheckResults(tb.DMem); idx >= 0 {
		t.Errorf("netlist FIR wrong at %d", idx)
	}
}

func TestNewFIRValidation(t *testing.T) {
	cfg := vex.SmallConfig()
	if _, err := NewFIR(cfg, 4, 8, 1); err == nil {
		t.Error("n < taps accepted")
	}
	if _, err := NewFIR(cfg, 10, 1, 1); err == nil {
		t.Error("taps < 2 accepted")
	}
	if _, err := NewFIR(cfg, 200, 4, 1); err == nil {
		t.Error("footprint beyond 8-bit addressing accepted")
	}
	for _, c := range []struct{ n, taps int }{{math.MaxInt, 2}, {math.MaxInt, math.MaxInt}, {DMemWords + 1, 2}} {
		if _, err := NewFIR(vex.DefaultConfig(), c.n, c.taps, 1); !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("n=%d taps=%d: err %v, want bad input", c.n, c.taps, err)
		}
	}
}

// TestNewTestbenchRequiresRegisteredInterface: Step reads the memory
// interface before the cycle's settle, so a core whose interface net
// is driven by logic, or by nothing, is refused as bad input.
func TestNewTestbenchRequiresRegisteredInterface(t *testing.T) {
	core := smallCore(t)
	if _, err := NewTestbench(core, nil, nil); err != nil {
		t.Fatalf("built core refused: %v", err)
	}
	comb := -1
	for i := range core.NL.Insts {
		if !core.NL.IsSequential(i) {
			comb = core.NL.Insts[i].Out
			break
		}
	}
	cases := map[string]func(c *vex.Core){
		"PCOut from logic":     func(c *vex.Core) { c.PCOut = append(netlist.Word{comb}, c.PCOut[1:]...) },
		"AddrOut from a PI":    func(c *vex.Core) { c.AddrOut = []netlist.Word{c.InstrIn[0]} },
		"StEnOut from logic":   func(c *vex.Core) { c.StEnOut = []int{comb} },
		"LdEnOut out of range": func(c *vex.Core) { c.LdEnOut = []int{c.NL.NumNets()} },
		"StDataOut from logic": func(c *vex.Core) { c.StDataOut = []netlist.Word{{comb}} },
	}
	for name, mutate := range cases {
		bad := *core
		mutate(&bad)
		if _, err := NewTestbench(&bad, nil, nil); !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("%s: err %v, want bad input", name, err)
		}
	}
}

func TestMachineValidation(t *testing.T) {
	cfg := vex.SmallConfig()
	if _, err := NewMachine(cfg, [][]uint32{{0}}, nil); err == nil {
		t.Error("bundle with wrong slot count accepted")
	}
	big := make([][]uint32, 1<<cfg.PCBits+1)
	for i := range big {
		big[i] = make([]uint32, cfg.Slots)
	}
	if _, err := NewMachine(cfg, big, nil); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestMachineRunsPastProgramEnd(t *testing.T) {
	cfg := vex.SmallConfig()
	m, err := NewMachine(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100) // all NOPs; must not panic and must not write state
	for r := 1; r < cfg.Regs; r++ {
		if m.RF[r] != 0 {
			t.Errorf("r%d = %d after NOP run", r, m.RF[r])
		}
	}
	if m.Cycle() != 100 {
		t.Errorf("cycle = %d", m.Cycle())
	}
}
