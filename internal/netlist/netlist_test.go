package netlist

import (
	"strings"
	"testing"
	"testing/quick"

	"vipipe/internal/cell"
)

func lib() *cell.Library { return cell.Default65nm() }

func TestStageString(t *testing.T) {
	if StageExecute.String() != "EXECUTE" || StageNone.String() != "NONE" {
		t.Error("stage names wrong")
	}
	if Stage(99).String() != "STAGE(99)" {
		t.Error("out-of-range stage name wrong")
	}
}

func TestAddInstWiring(t *testing.T) {
	n := New("t", lib())
	a := n.AddPI("a")
	bNet := n.AddPI("b")
	out := n.AddInst(cell.Nand2, "u1", StageDecode, "dec", a, bNet)
	if n.NumCells() != 1 || n.NumNets() != 3 {
		t.Fatalf("cells=%d nets=%d", n.NumCells(), n.NumNets())
	}
	if n.Nets[out].Driver != 0 {
		t.Error("driver not set")
	}
	if len(n.Nets[a].Sinks) != 1 || n.Nets[a].Sinks[0] != (Sink{Inst: 0, Pin: 0}) {
		t.Error("sink bookkeeping wrong for a")
	}
	if len(n.Nets[bNet].Sinks) != 1 || n.Nets[bNet].Sinks[0] != (Sink{Inst: 0, Pin: 1}) {
		t.Error("sink bookkeeping wrong for b")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddInstArityPanic(t *testing.T) {
	n := New("t", lib())
	a := n.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.AddInst(cell.Nand2, "u1", StageNone, "", a)
}

func TestValidateCatchesDanglingSink(t *testing.T) {
	n := New("t", lib())
	a := n.AddPI("a")
	n.AddInst(cell.Inv, "u1", StageNone, "", a)
	// Corrupt: an undriven, non-PI net with sinks.
	bad := n.AddNet("bad")
	n.Insts[0].Inputs[0] = bad
	n.Nets[bad].Sinks = append(n.Nets[bad].Sinks, Sink{Inst: 0, Pin: 0})
	if err := n.Validate(); err == nil {
		t.Error("dangling net not caught")
	}
}

func TestLevelizeOrdersChain(t *testing.T) {
	n := New("t", lib())
	a := n.AddPI("a")
	x := n.AddInst(cell.Inv, "i1", StageNone, "", a)
	y := n.AddInst(cell.Inv, "i2", StageNone, "", x)
	n.AddInst(cell.Inv, "i3", StageNone, "", y)
	order, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestLevelizeDetectsCycle(t *testing.T) {
	n := New("t", lib())
	// Build a 2-inverter loop by hand.
	n1 := n.AddNet("n1")
	n2 := n.AddNet("n2")
	n.Insts = append(n.Insts,
		Inst{ID: 0, Name: "i1", Kind: cell.Inv, Inputs: []int{n2}, Out: n1},
		Inst{ID: 1, Name: "i2", Kind: cell.Inv, Inputs: []int{n1}, Out: n2},
	)
	n.Nets[n1].Driver = 0
	n.Nets[n2].Driver = 1
	n.Nets[n1].Sinks = []Sink{{Inst: 1, Pin: 0}}
	n.Nets[n2].Sinks = []Sink{{Inst: 0, Pin: 0}}
	if _, err := n.Levelize(); err == nil {
		t.Error("cycle not detected")
	}
	if err := n.Validate(); err == nil {
		t.Error("validate should also fail on cycle")
	}
}

func TestLevelizeCutsAtFlops(t *testing.T) {
	// inv -> DFF -> inv is not a combinational cycle even when fed
	// back.
	b := NewBuilder("t", lib())
	a := b.NL.AddPI("a")
	x := b.Not(a)
	q := b.DFF(x)
	y := b.Not(q)
	_ = y
	order, err := b.NL.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Errorf("comb order size %d, want 2", len(order))
	}
	if b.NL.LogicDepth() != 1 {
		t.Errorf("depth = %d, want 1", b.NL.LogicDepth())
	}
}

func TestSequentialsAndFeedbackLoop(t *testing.T) {
	// A DFF feeding itself through an inverter (toggle flop) must
	// validate cleanly: the flop cuts the loop.
	b := NewBuilder("t", lib())
	// Create the DFF with a placeholder input, then rewire it to
	// close the loop.
	ph := b.NL.AddPI("ph")
	q := b.DFF(ph)
	nq := b.Not(q)
	dff := b.NL.Nets[q].Driver
	b.NL.Insts[dff].Inputs[0] = nq
	b.NL.Nets[ph].Sinks = nil
	b.NL.Nets[nq].Sinks = append(b.NL.Nets[nq].Sinks, Sink{Inst: dff, Pin: 0})
	if err := b.NL.Validate(); err != nil {
		t.Fatalf("toggle flop should validate: %v", err)
	}
	if got := len(b.NL.Sequentials()); got != 1 {
		t.Errorf("sequentials = %d, want 1", got)
	}
}

func TestBuilderScope(t *testing.T) {
	b := NewBuilder("t", lib())
	restore := b.Scope(StageExecute, "execute/alu")
	a := b.NL.AddPI("a")
	b.Not(a)
	restore()
	b.Not(a)
	if b.NL.Insts[0].Stage != StageExecute || b.NL.Insts[0].Unit != "execute/alu" {
		t.Error("scope not applied")
	}
	if b.NL.Insts[1].Stage != StageNone || b.NL.Insts[1].Unit != "" {
		t.Error("scope not restored")
	}
}

func TestBuilderWords(t *testing.T) {
	b := NewBuilder("t", lib())
	x := b.InputWord("x", 4)
	y := b.InputWord("y", 4)
	sel := b.NL.AddPI("sel")
	m := b.MuxWord(x, y, sel)
	if len(m) != 4 {
		t.Fatal("mux width")
	}
	q := b.DFFWord(m)
	b.OutputWord(q)
	if err := b.NL.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.NL.POs) != 4 || len(b.NL.PIs) != 9 {
		t.Errorf("PIs=%d POs=%d", len(b.NL.PIs), len(b.NL.POs))
	}
	got := b.NL.Stats()
	if got.Flops != 4 {
		t.Errorf("flops = %d", got.Flops)
	}
}

func TestBuilderConstWord(t *testing.T) {
	b := NewBuilder("t", lib())
	var w Word
	for i := 0; i < 4; i++ {
		w = append(w, b.Const(0b1010>>i&1 == 1))
	}
	kinds := []cell.Kind{cell.TieLo, cell.TieHi, cell.TieLo, cell.TieHi}
	for i, n := range w {
		if b.NL.Insts[b.NL.Nets[n].Driver].Kind != kinds[i] {
			t.Errorf("bit %d wrong tie cell", i)
		}
	}
}

func TestTreeReduction(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		b := NewBuilder("t", lib())
		in := make([]int, width)
		for i := range in {
			in[i] = b.NL.AddPI("i")
		}
		out := b.AndTree(in)
		if out < 0 {
			t.Fatal("no output")
		}
		if err := b.NL.Validate(); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		depth := b.NL.LogicDepth()
		// A balanced tree of 2/3-input gates over w inputs is at
		// most ceil(log2(w)) deep.
		maxDepth := 1
		for w := width; w > 1; w = (w + 1) / 2 {
			maxDepth++
		}
		if width > 1 && depth > maxDepth {
			t.Errorf("width %d: depth %d > %d", width, depth, maxDepth)
		}
	}
}

func TestTreePanicsOnEmpty(t *testing.T) {
	b := NewBuilder("t", lib())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.OrTree(nil)
}

func TestWordOpsPanicOnMismatch(t *testing.T) {
	b := NewBuilder("t", lib())
	x := b.InputWord("x", 2)
	y := b.InputWord("y", 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.XorWord(x, y)
}

func TestStatsGroupsByTopUnit(t *testing.T) {
	b := NewBuilder("t", lib())
	a := b.NL.AddPI("a")
	r1 := b.Scope(StageExecute, "execute/slot0/alu")
	b.Not(a)
	b.Not(a)
	r1()
	r2 := b.Scope(StageDecode, "decode")
	b.Not(a)
	r2()
	ds := b.NL.Stats()
	if len(ds.ByUnit) != 2 {
		t.Fatalf("units = %v", ds.ByUnit)
	}
	if ds.ByUnit[0].Unit != "execute" || ds.ByUnit[0].Cells != 2 {
		t.Errorf("top unit wrong: %+v", ds.ByUnit[0])
	}
	if !strings.Contains(ds.String(), "execute") {
		t.Error("render missing unit")
	}
}

func TestTopUnit(t *testing.T) {
	cases := map[string]string{
		"execute/slot0/alu": "execute",
		"decode":            "decode",
		"":                  "(untagged)",
	}
	for in, want := range cases {
		if got := TopUnit(in); got != want {
			t.Errorf("TopUnit(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: for any small random DAG built via the builder, Validate
// passes and Levelize orders all combinational cells.
func TestRandomDAGProperty(t *testing.T) {
	f := func(seedBytes []byte) bool {
		b := NewBuilder("t", lib())
		nets := []int{b.NL.AddPI("a"), b.NL.AddPI("b")}
		for i, sb := range seedBytes {
			if i > 40 {
				break
			}
			x := nets[int(sb)%len(nets)]
			y := nets[int(sb/7)%len(nets)]
			var out int
			switch sb % 5 {
			case 0:
				out = b.Not(x)
			case 1:
				out = b.And(x, y)
			case 2:
				out = b.Xor(x, y)
			case 3:
				out = b.DFF(x)
			default:
				out = b.Mux(x, y, nets[int(sb/3)%len(nets)])
			}
			nets = append(nets, out)
		}
		if err := b.NL.Validate(); err != nil {
			return false
		}
		order, err := b.NL.Levelize()
		if err != nil {
			return false
		}
		comb := 0
		for i := range b.NL.Insts {
			if !b.NL.IsSequential(i) {
				comb++
			}
		}
		return len(order) == comb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFanWord(t *testing.T) {
	w := FanWord(7, 3)
	if len(w) != 3 || w[0] != 7 || w[2] != 7 {
		t.Errorf("FanWord wrong: %v", w)
	}
}

func TestRewireInput(t *testing.T) {
	n := New("t", lib())
	a := n.AddPI("a")
	b2 := n.AddPI("b")
	out := n.AddInst(cell.Inv, "u1", StageNone, "", a)
	inst := n.Nets[out].Driver
	n.RewireInput(inst, 0, b2)
	if n.Insts[inst].Inputs[0] != b2 {
		t.Error("input not rewired")
	}
	if len(n.Nets[a].Sinks) != 0 {
		t.Error("old sink not removed")
	}
	if len(n.Nets[b2].Sinks) != 1 || n.Nets[b2].Sinks[0].Inst != inst {
		t.Error("new sink not added")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rewiring to the same net is a no-op.
	n.RewireInput(inst, 0, b2)
	if len(n.Nets[b2].Sinks) != 1 {
		t.Error("same-net rewire duplicated sink")
	}
}

func TestReplaceNetSinks(t *testing.T) {
	n := New("t", lib())
	old := n.AddPI("old")
	repl := n.AddPI("new")
	for i := 0; i < 3; i++ {
		n.AddInst(cell.Inv, "u", StageNone, "", old)
	}
	n.ReplaceNetSinks(old, repl)
	if len(n.Nets[old].Sinks) != 0 {
		t.Error("old net still has sinks")
	}
	if len(n.Nets[repl].Sinks) != 3 {
		t.Errorf("new net has %d sinks, want 3", len(n.Nets[repl].Sinks))
	}
	for i := 0; i < 3; i++ {
		if n.Insts[i].Inputs[0] != repl {
			t.Errorf("inst %d not reconnected", i)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Self-replacement is a no-op.
	n.ReplaceNetSinks(repl, repl)
	if len(n.Nets[repl].Sinks) != 3 {
		t.Error("self-replacement corrupted sinks")
	}
}
