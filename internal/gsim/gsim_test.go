package gsim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
)

func builder() *netlist.Builder {
	return netlist.NewBuilder("t", cell.Default65nm())
}

func TestCombEval(t *testing.T) {
	b := builder()
	a := b.Input("a")
	c := b.Input("c")
	x := b.Xor(a, c)
	s, err := New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, c, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		s.SetPI(a, tc.a)
		s.SetPI(c, tc.c)
		s.Eval()
		if s.Val(x) != tc.want {
			t.Errorf("xor(%v,%v) = %v", tc.a, tc.c, s.Val(x))
		}
	}
}

func TestNewRejectsCycle(t *testing.T) {
	b := builder()
	// Handmade combinational loop.
	n1 := b.NL.AddNet("n1")
	out := b.NL.AddInst(cell.Inv, "i1", netlist.StageNone, "", n1)
	inst := b.NL.Nets[out].Driver
	b.NL.Insts[inst].Inputs[0] = out
	b.NL.Nets[out].Sinks = append(b.NL.Nets[out].Sinks, netlist.Sink{Inst: inst, Pin: 0})
	b.NL.Nets[n1].Sinks = nil
	if _, err := New(b.NL); err == nil {
		t.Error("cycle accepted")
	}
}

func TestDFFPipelineDelay(t *testing.T) {
	// Two back-to-back flops delay a PI by two cycles.
	b := builder()
	d := b.Input("d")
	q1 := b.DFF(d)
	q2 := b.DFF(q1)
	s, err := New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false}
	var gotQ2 []bool
	for _, v := range seq {
		s.SetPI(d, v)
		s.Step()
		gotQ2 = append(gotQ2, s.Val(q2))
	}
	// q2 at cycle k shows input from cycle k-2.
	want := []bool{false, false, true, false, true}
	for i := range want {
		if gotQ2[i] != want[i] {
			t.Errorf("cycle %d: q2 = %v, want %v", i, gotQ2[i], want[i])
		}
	}
}

func TestToggleCounting(t *testing.T) {
	b := builder()
	d := b.Input("d")
	q := b.DFF(d)
	inv := b.Not(q)
	s, err := New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate the input every cycle: d toggles each of the 7
	// transitions; q and inv follow one cycle later.
	for c := 0; c < 8; c++ {
		s.SetPI(d, c%2 == 1)
		s.Step()
	}
	if s.Toggles(d) != 7 {
		t.Errorf("d toggles = %d, want 7", s.Toggles(d))
	}
	// q lags d by one cycle, so it only completes 6 transitions in
	// the 7 counted cycle boundaries.
	if s.Toggles(q) != 6 || s.Toggles(inv) != 6 {
		t.Errorf("q/inv toggles = %d/%d, want 6/6", s.Toggles(q), s.Toggles(inv))
	}
	act := s.Activity()
	if act[d] != 1.0 {
		t.Errorf("activity of d = %g, want 1", act[d])
	}
}

func TestConstantNetHasZeroActivity(t *testing.T) {
	b := builder()
	d := b.Input("d")
	k := b.Const(true)
	x := b.And(d, k)
	s, _ := New(b.NL)
	for c := 0; c < 10; c++ {
		s.SetPI(d, c%3 == 0)
		s.Step()
	}
	if s.Toggles(k) != 0 {
		t.Errorf("constant net toggled %d times", s.Toggles(k))
	}
	if s.Toggles(x) == 0 {
		t.Error("gated net should toggle")
	}
}

func TestResetClearsState(t *testing.T) {
	b := builder()
	d := b.Input("d")
	q := b.DFF(d)
	s, _ := New(b.NL)
	s.SetPI(d, true)
	s.Step()
	s.Step()
	if !s.Val(q) {
		t.Fatal("q should be 1 after two cycles of d=1")
	}
	s.Reset()
	if s.Val(q) || s.Cycles() != 0 || s.Toggles(d) != 0 {
		t.Error("reset incomplete")
	}
	if act := s.Activity(); act[d] != 0 {
		t.Error("activity after reset should be zero")
	}
}

func TestToggleFlopDividesByTwo(t *testing.T) {
	// Classic toggle flop: q' = !q. Output toggles every cycle.
	b := builder()
	ph := b.Input("ph")
	q := b.DFF(ph)
	nq := b.Not(q)
	dff := b.NL.Nets[q].Driver
	b.NL.Insts[dff].Inputs[0] = nq
	b.NL.Nets[ph].Sinks = nil
	b.NL.Nets[nq].Sinks = append(b.NL.Nets[nq].Sinks, netlist.Sink{Inst: dff, Pin: 0})
	s, err := New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]bool, 6)
	for c := range vals {
		s.Step()
		vals[c] = s.Val(q)
	}
	want := []bool{false, true, false, true, false, true}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("toggle sequence wrong at %d: %v", i, vals)
		}
	}
}

func TestWordHelpers(t *testing.T) {
	b := builder()
	w := b.InputWord("w", 8)
	q := b.DFFWord(w)
	s, _ := New(b.NL)
	s.SetPIWord(w, 0xA5)
	s.Step()
	s.Step()
	if got := s.Word(q); got != 0xA5 {
		t.Errorf("word = %#x, want 0xA5", got)
	}
}

func TestRunCallback(t *testing.T) {
	b := builder()
	d := b.Input("d")
	b.DFF(d)
	s, _ := New(b.NL)
	n := 0
	s.Run(5, func(c int, sim *Simulator) {
		n++
		sim.SetPI(d, c%2 == 0)
	})
	if n != 5 || s.Cycles() != 5 {
		t.Errorf("run executed %d/%d cycles", n, s.Cycles())
	}
}

// combKinds lists every combinational kind of the library.
func combKinds() []cell.Kind {
	var ks []cell.Kind
	for _, c := range cell.Default65nm().Cells() {
		if !c.Sequential {
			ks = append(ks, c.Kind)
		}
	}
	return ks
}

// Property: for random combinational netlists over every combinational
// kind of the library, the simulator's flat Eval matches a direct
// recursive evaluation through Cell.Eval: same pin order, unused input
// slots ignored, outputs on the right nets.
func TestEvalMatchesRecursiveEvaluation(t *testing.T) {
	kinds := combKinds()
	lib := cell.Default65nm()
	f := func(ops []uint32, stimulus uint8) bool {
		b := builder()
		nets := []int{b.Input("a"), b.Input("b"), b.Input("c")}
		for i, op := range ops {
			if i >= 30 {
				break
			}
			k := kinds[int(op%uint32(len(kinds)))]
			in := make([]int, lib.Cell(k).NumInputs)
			for p := range in {
				in[p] = nets[int(op>>(5+6*p)&63)%len(nets)]
			}
			nets = append(nets, b.Gate(k, in...))
		}
		s, err := New(b.NL)
		if err != nil {
			return false
		}
		pi := []bool{stimulus&1 == 1, stimulus&2 == 2, stimulus&4 == 4}
		for i, n := range b.NL.PIs {
			s.SetPI(n, pi[i])
		}
		s.Eval()
		// Recursive reference evaluation.
		var evalNet func(n int) bool
		evalNet = func(n int) bool {
			drv := b.NL.Nets[n].Driver
			if drv == -1 {
				for i, p := range b.NL.PIs {
					if p == n {
						return pi[i]
					}
				}
				return false
			}
			inst := &b.NL.Insts[drv]
			in := make([]bool, len(inst.Inputs))
			for k, m := range inst.Inputs {
				in[k] = evalNet(m)
			}
			return b.NL.Cell(drv).Eval(in)
		}
		for _, n := range nets {
			if s.Val(n) != evalNet(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStepAllocatesNothing: a clock cycle walks preallocated arrays.
func TestStepAllocatesNothing(t *testing.T) {
	b := builder()
	d := b.Input("d")
	q := b.DFF(b.Xor(d, b.Not(d)))
	b.Mux(d, q, b.Nand(d, q))
	s, err := New(b.NL)
	if err != nil {
		t.Fatal(err)
	}
	c := 0
	if n := testing.AllocsPerRun(100, func() {
		s.SetPI(d, c%3 == 0)
		s.Step()
		c++
	}); n != 0 {
		t.Errorf("Step allocates %v times per cycle", n)
	}
}

// TestNewRejectsUnflattenableCells: an instance whose pin count
// differs from its cell's, and a cell wider than cell.MaxInputs, are
// bad input at construction.
func TestNewRejectsUnflattenableCells(t *testing.T) {
	b := builder()
	a := b.Input("a")
	out := b.Nand(a, a)
	inst := b.NL.Nets[out].Driver
	b.NL.Insts[inst].Inputs = b.NL.Insts[inst].Inputs[:1]
	if _, err := New(b.NL); !errors.Is(err, flowerr.ErrBadInput) {
		t.Errorf("instance with a missing pin: err %v, want bad input", err)
	}

	lib := cell.Default65nm()
	b = netlist.NewBuilder("t", lib)
	a = b.Input("a")
	out = b.Gate(cell.Nand4, a, a, a, a)
	inst = b.NL.Nets[out].Driver
	b.NL.Insts[inst].Inputs = append(b.NL.Insts[inst].Inputs, a)
	lib.Cell(cell.Nand4).NumInputs = cell.MaxInputs + 1
	if _, err := New(b.NL); !errors.Is(err, flowerr.ErrBadInput) || !strings.Contains(err.Error(), "more than") {
		t.Errorf("cell wider than MaxInputs: err %v, want bad input", err)
	}
}
