package netlist

import (
	"fmt"

	"vipipe/internal/cell"
)

// Word is a little-endian bus of net IDs (index 0 = bit 0).
type Word []int

// Builder provides scoped, name-generating construction helpers on top
// of a Netlist. RTL generators push a scope (stage + unit) and emit
// gates; names are derived automatically.
type Builder struct {
	NL    *Netlist
	stage Stage
	unit  string
	seq   int
}

// NewBuilder wraps an empty netlist for construction.
func NewBuilder(name string, lib *cell.Library) *Builder {
	return &Builder{NL: New(name, lib)}
}

// Scope sets the stage and unit tags applied to subsequently created
// instances and returns a function restoring the previous scope.
func (b *Builder) Scope(stage Stage, unit string) func() {
	ps, pu := b.stage, b.unit
	b.stage, b.unit = stage, unit
	return func() { b.stage, b.unit = ps, pu }
}

func (b *Builder) autoName(kind cell.Kind) string {
	b.seq++
	return fmt.Sprintf("%s/%s_%d", b.unit, kind, b.seq)
}

// Gate instantiates a cell of the given kind in the current scope and
// returns its output net.
func (b *Builder) Gate(kind cell.Kind, inputs ...int) int {
	return b.NL.AddInst(kind, b.autoName(kind), b.stage, b.unit, inputs...)
}

// InputWord creates a primary-input bus of the given width.
func (b *Builder) InputWord(name string, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.NL.AddPI(fmt.Sprintf("%s[%d]", name, i))
	}
	return w
}

// Output marks a net as primary output.
func (b *Builder) Output(net int) { b.NL.MarkPO(net) }

// OutputWord marks each bit of a bus as primary output.
func (b *Builder) OutputWord(w Word) {
	for _, n := range w {
		b.Output(n)
	}
}

// Convenience single-gate constructors.

// Not returns !a.
func (b *Builder) Not(a int) int { return b.Gate(cell.Inv, a) }

// And returns a & c.
func (b *Builder) And(a, c int) int { return b.Gate(cell.And2, a, c) }

// Or returns a | c.
func (b *Builder) Or(a, c int) int { return b.Gate(cell.Or2, a, c) }

// Xor returns a ^ c.
func (b *Builder) Xor(a, c int) int { return b.Gate(cell.Xor2, a, c) }

// Xnor returns !(a ^ c).
func (b *Builder) Xnor(a, c int) int { return b.Gate(cell.Xnor2, a, c) }

// Mux returns sel ? hi : lo.
func (b *Builder) Mux(lo, hi, sel int) int { return b.Gate(cell.Mux2, lo, hi, sel) }

// DFF instantiates a flip-flop capturing d and returns its Q net.
func (b *Builder) DFF(d int) int { return b.Gate(cell.DFF, d) }

// Const returns a constant-0 or constant-1 net backed by a tie cell.
func (b *Builder) Const(v bool) int {
	if v {
		return b.Gate(cell.TieHi)
	}
	return b.Gate(cell.TieLo)
}

// AndTree reduces the inputs with a balanced tree of AND gates,
// using 3-input cells where they fit.
func (b *Builder) AndTree(in []int) int { return b.tree(in, cell.And2, cell.And3) }

// OrTree reduces the inputs with a balanced tree of OR gates.
func (b *Builder) OrTree(in []int) int { return b.tree(in, cell.Or2, cell.Or3) }

func (b *Builder) tree(in []int, k2, k3 cell.Kind) int {
	if len(in) == 0 {
		panic("netlist: empty reduction tree")
	}
	level := append([]int(nil), in...)
	for len(level) > 1 {
		var next []int
		i := 0
		for i < len(level) {
			switch {
			case len(level)-i >= 3 && (len(level)-i)%2 == 1:
				next = append(next, b.Gate(k3, level[i], level[i+1], level[i+2]))
				i += 3
			case len(level)-i >= 2:
				next = append(next, b.Gate(k2, level[i], level[i+1]))
				i += 2
			default:
				next = append(next, level[i])
				i++
			}
		}
		level = next
	}
	return level[0]
}

// MuxWord returns a bitwise sel ? hi : lo over two equal-width buses.
func (b *Builder) MuxWord(lo, hi Word, sel int) Word {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("netlist: mux width mismatch %d vs %d", len(lo), len(hi)))
	}
	out := make(Word, len(lo))
	for i := range out {
		out[i] = b.Mux(lo[i], hi[i], sel)
	}
	return out
}

// DFFWord registers every bit of a bus and returns the Q bus.
func (b *Builder) DFFWord(d Word) Word {
	q := make(Word, len(d))
	for i := range q {
		q[i] = b.DFF(d[i])
	}
	return q
}

// AndWord computes the bitwise AND of two buses.
func (b *Builder) AndWord(x, y Word) Word { return b.zipWord(x, y, cell.And2) }

// OrWord computes the bitwise OR of two buses.
func (b *Builder) OrWord(x, y Word) Word { return b.zipWord(x, y, cell.Or2) }

// XorWord computes the bitwise XOR of two buses.
func (b *Builder) XorWord(x, y Word) Word { return b.zipWord(x, y, cell.Xor2) }

func (b *Builder) zipWord(x, y Word, k cell.Kind) Word {
	if len(x) != len(y) {
		panic(fmt.Sprintf("netlist: word width mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Word, len(x))
	for i := range out {
		out[i] = b.Gate(k, x[i], y[i])
	}
	return out
}

// FanWord replicates a single net into a width-wide bus (no gates).
func FanWord(n, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = n
	}
	return w
}
