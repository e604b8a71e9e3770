package verilog

import (
	"bytes"
	"strings"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/vex"
)

func TestWriteSmallNetlist(t *testing.T) {
	b := netlist.NewBuilder("toy", cell.Default65nm())
	a := b.NL.AddPI("a")
	c := b.NL.AddPI("c")
	x := b.Gate(cell.Nand2, a, c)
	q := b.DFF(x)
	b.Output(q)
	var buf bytes.Buffer
	if err := Write(&buf, b.NL); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"module toy (clk, a, c,",
		"input clk;",
		"input a;",
		"NAND2",
		".CK(clk)",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every instance appears exactly once.
	if strings.Count(out, "NAND2 ") != 1 || strings.Count(out, "DFF ") != 1 {
		t.Errorf("instance counts wrong:\n%s", out)
	}
}

func TestEscapedIdentifiers(t *testing.T) {
	b := netlist.NewBuilder("esc", cell.Default65nm())
	w := b.InputWord("data", 2)
	x := b.And(w[0], w[1])
	b.Output(x)
	var buf bytes.Buffer
	if err := Write(&buf, b.NL); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Bus bits need escaped identifiers.
	if !strings.Contains(out, `\data[0] `) {
		t.Errorf("escaped identifier missing:\n%s", out)
	}
}

func TestTieCellsAndPlainNames(t *testing.T) {
	b := netlist.NewBuilder("ties", cell.Default65nm())
	k := b.Const(true)
	x := b.Not(k)
	b.Output(x)
	var buf bytes.Buffer
	if err := Write(&buf, b.NL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TIEHI") {
		t.Error("tie cell missing")
	}
}

func TestFullCoreEmits(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, core.NL); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One instantiation line per instance plus ports/wires.
	lines := strings.Count(out, ";\n")
	if lines < core.NL.NumCells() {
		t.Errorf("only %d statements for %d cells", lines, core.NL.NumCells())
	}
	for _, kind := range []string{"DFF", "MUX2"} {
		if !strings.Contains(out, "\n  "+kind+" ") {
			t.Errorf("no %s instance written", kind)
		}
	}
}

func TestSanitize(t *testing.T) {
	if sanitizeID("") != "anon" || sanitizeID("9a b/c") != "_a_b_c" {
		t.Errorf("sanitize wrong: %q %q", sanitizeID(""), sanitizeID("9a b/c"))
	}
	if escapeID("plain_Name2") != "plain_Name2" {
		t.Error("plain name escaped needlessly")
	}
	if escapeID("a/b") != `\a/b ` {
		t.Errorf("escape wrong: %q", escapeID("a/b"))
	}
}
